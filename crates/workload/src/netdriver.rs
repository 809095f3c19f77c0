//! Drives real TCP client connections against live [`ZkTcpServer`]s: the one
//! measured path behind every throughput figure and Table 1.
//!
//! * [`LiveServer`] starts a loopback server for one [`Variant`]: plain,
//!   TLS-ZK ([`TlsInterceptor`] opening the frames in untrusted code) or
//!   SecureKeeper (entry enclaves and the counter enclave); [`member`] builds
//!   the same replicas for ensembles.
//! * `fan_out` runs one thread per client connection: setup outside the
//!   timed window, a common start line, then the work; a run takes as long
//!   as its slowest worker.
//! * `drive` sends one connection's requests through
//!   [`ZkTcpClient::submit`]/[`ZkTcpClient::wait`] with a window of tickets
//!   in flight (1 for synchronous clients, [`ASYNC_WINDOW`] for asynchronous
//!   ones) and checks every reply with a `ReplyCheck`. An error reply or a
//!   wrong payload fails the run.
//! * [`run_workload`], [`run_ycsb`], [`run_multi_batches`] and
//!   [`run_recipes`] put the generated workloads through them.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use jute::multi::MultiRequest;
use jute::{Request, Response};
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::session::MonotonicClock;
use zkserver::typed::{
    expect_create, expect_delete, expect_get_children, expect_get_data, expect_multi,
    expect_set_data,
};
use zkserver::{ZkError, ZkReplica, ZkTcpClient, ZkTcpServer};

use crate::generator::{MultiSpec, RecipeSpec, WorkloadSpec};
use crate::measured::TlsInterceptor;
use crate::variant::{RequestMode, Variant};
use crate::ycsb::YcsbWorkload;

/// Requests an asynchronous client keeps in flight (the paper's evaluation
/// used 200 pending requests per client).
pub const ASYNC_WINDOW: usize = 200;

/// Session timeout every driven connection asks for, in milliseconds.
const SESSION_TIMEOUT_MS: i64 = 30_000;

/// Tickets a connection in `mode` keeps in flight.
fn window(mode: RequestMode) -> usize {
    match mode {
        RequestMode::Synchronous => 1,
        RequestMode::Asynchronous => ASYNC_WINDOW,
    }
}

/// Builds replica `id` of `variant`. SecureKeeper members share one storage
/// key, so they can form an ensemble.
pub fn member(variant: Variant, id: u32) -> Arc<ZkReplica> {
    let clock = Arc::new(MonotonicClock::new());
    match variant {
        Variant::VanillaZk => Arc::new(ZkReplica::new(id).with_clock(clock)),
        Variant::TlsZk => Arc::new(
            ZkReplica::new(id).with_interceptor(Arc::new(TlsInterceptor::new())).with_clock(clock),
        ),
        Variant::SecureKeeper => {
            secure_ensemble_replica(id, &SecureKeeperConfig::with_label("netdriver")).0
        }
    }
}

/// The credentials a client of `variant` connects with: TLS-ZK and
/// SecureKeeper clients both send a fresh 16-byte session key and seal every
/// frame with it.
pub(crate) fn credentials(variant: Variant) -> Arc<dyn SessionCredentials> {
    match variant {
        Variant::VanillaZk => Arc::new(PlainCredentials),
        Variant::TlsZk | Variant::SecureKeeper => Arc::new(SecureSessionCredentials),
    }
}

/// One loopback [`ZkTcpServer`] running a [`Variant`].
#[derive(Debug)]
pub struct LiveServer {
    variant: Variant,
    server: ZkTcpServer,
}

impl LiveServer {
    /// Starts a standalone server of `variant` on a loopback port.
    ///
    /// # Panics
    ///
    /// Panics if no loopback port can be bound.
    pub fn start(variant: Variant) -> Self {
        let server = ZkTcpServer::bind("127.0.0.1:0", member(variant, 1)).expect("bind loopback");
        LiveServer { variant, server }
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The server's replica (for inspecting its tree).
    pub fn replica(&self) -> Arc<ZkReplica> {
        self.server.replica()
    }

    /// Opens one client session with the variant's credentials.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] when the handshake fails.
    pub fn connect(&self) -> Result<ZkTcpClient, ZkError> {
        connect(self.addr(), credentials(self.variant))
    }

    /// Stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn connect(
    addr: SocketAddr,
    credentials: Arc<dyn SessionCredentials>,
) -> Result<ZkTcpClient, ZkError> {
    ZkTcpClient::connect_with(addr, credentials, SESSION_TIMEOUT_MS)
}

/// What the replies on one connection must look like.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplyCheck {
    /// Length of the payload every GET reply carries. Generated payloads are
    /// one byte repeated, so a GET must also return a single repeated byte.
    payload: usize,
    /// Fewest children an LS reply may list.
    min_children: usize,
    /// No other connection writes the znodes this one writes, so a GET must
    /// return exactly what this connection last wrote there.
    sole_writer: bool,
    /// Fill byte of this connection's last SET per path.
    written: HashMap<String, u8>,
}

impl ReplyCheck {
    /// A check for payloads of `payload` bytes and LS replies of at least
    /// `min_children` names.
    pub(crate) fn new(payload: usize, min_children: usize, sole_writer: bool) -> Self {
        ReplyCheck { payload, min_children, sole_writer, written: HashMap::new() }
    }

    /// Forgets what this connection wrote. Called after a reconnect: a write
    /// whose reply was lost may or may not have landed.
    pub(crate) fn forget_writes(&mut self) {
        self.written.clear();
    }

    /// Notes `request` as submitted and returns the fill byte its reply must
    /// carry, when this connection knows it.
    fn submitted(&mut self, request: &Request) -> Option<u8> {
        if !self.sole_writer {
            return None;
        }
        match request {
            Request::SetData(set) => {
                if let Some(&fill) = set.data.first() {
                    match self.written.get_mut(&set.path) {
                        Some(slot) => *slot = fill,
                        None => {
                            self.written.insert(set.path.clone(), fill);
                        }
                    }
                }
                None
            }
            Request::GetData(get) => self.written.get(&get.path).copied(),
            _ => None,
        }
    }

    /// Checks `response` against `request`.
    ///
    /// # Errors
    ///
    /// Returns the typed error of an error reply, and
    /// [`ZkError::Marshalling`] for a reply of the wrong shape or content.
    fn verify(
        &self,
        request: &Request,
        response: Response,
        fill: Option<u8>,
    ) -> Result<(), ZkError> {
        let wrong = |what: String| ZkError::Marshalling {
            reason: format!(
                "wrong reply to {:?} {}: {what}",
                request.op(),
                request.path().unwrap_or_default()
            ),
        };
        match request {
            Request::GetData(get) => {
                let (data, _) = expect_get_data(response, &get.path)?;
                let fill = fill.or(data.first().copied());
                if data.len() != self.payload || data.iter().any(|&b| Some(b) != fill) {
                    return Err(wrong(format!(
                        "{} bytes, expected {} bytes of {fill:?}",
                        data.len(),
                        self.payload
                    )));
                }
            }
            Request::SetData(set) => {
                expect_set_data(response, &set.path)?;
            }
            Request::Create(create) => {
                let path = expect_create(response, &create.path)?;
                let named = if create.mode.is_sequential() {
                    path.len() > create.path.len() && path.starts_with(&create.path)
                } else {
                    path == create.path
                };
                if !named {
                    return Err(wrong(format!("created {path}")));
                }
            }
            Request::Delete(delete) => expect_delete(response, &delete.path)?,
            Request::GetChildren(ls) => {
                let listed = expect_get_children(response, &ls.path)?.len();
                if listed < self.min_children {
                    return Err(wrong(format!(
                        "{listed} children, expected {}",
                        self.min_children
                    )));
                }
            }
            Request::Multi(multi) => {
                let results = expect_multi(response, multi.ops.len())?;
                if let Some((index, code)) = jute::multi::first_error_of(&results) {
                    return Err(wrong(format!("aborted at op {index}: {code:?}")));
                }
            }
            _ => return Err(wrong("no check for this request".into())),
        }
        Ok(())
    }
}

/// Sends `requests` through `client` in order, keeping up to `window`
/// tickets in flight, and checks every reply.
///
/// # Errors
///
/// Returns the first connection failure, error reply or wrong reply.
pub(crate) fn drive(
    client: &mut ZkTcpClient,
    requests: &[Request],
    window: usize,
    check: &mut ReplyCheck,
) -> Result<(), ZkError> {
    let window = window.max(1);
    let mut inflight = VecDeque::with_capacity(window);
    for request in requests {
        if inflight.len() == window {
            let (ticket, sent, fill) = inflight.pop_front().expect("the window is full");
            check.verify(sent, client.wait(ticket)?, fill)?;
        }
        let fill = check.submitted(request);
        inflight.push_back((client.submit(request)?, request, fill));
    }
    for (ticket, sent, fill) in inflight {
        check.verify(sent, client.wait(ticket)?, fill)?;
    }
    Ok(())
}

/// Creates every node of `requests` (CREATEs only) over one connection,
/// pipelined. A node that an earlier run on the same server left behind is
/// fine.
///
/// # Errors
///
/// Returns connection failures and error replies other than `NodeExists`.
pub(crate) fn create_all(client: &mut ZkTcpClient, requests: &[Request]) -> Result<(), ZkError> {
    for chunk in requests.chunks(ASYNC_WINDOW) {
        let tickets: Vec<_> = chunk.iter().map(|r| client.submit(r)).collect::<Result<_, _>>()?;
        for (ticket, request) in tickets.into_iter().zip(chunk) {
            match expect_create(client.wait(ticket)?, request.path().unwrap_or_default()) {
                Ok(_) | Err(ZkError::NodeExists { .. }) => {}
                Err(err) => return Err(err),
            }
        }
    }
    Ok(())
}

/// Runs `work` on one thread per client. Each thread first connects outside
/// the timed window, then waits at a start line that every thread reaches
/// even after a failed connect (so one bad connection reports its error
/// instead of deadlocking the others). Returns the slowest worker's seconds.
///
/// # Errors
///
/// Returns the first error of any worker.
///
/// # Panics
///
/// Panics if a worker thread panics.
fn fan_out(
    clients: usize,
    connect: impl Fn() -> Result<ZkTcpClient, ZkError> + Sync,
    work: impl Fn(usize, ZkTcpClient) -> Result<(), ZkError> + Sync,
) -> Result<f64, ZkError> {
    let start_line = Barrier::new(clients);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let (connect, work, start_line) = (&connect, &work, &start_line);
                scope.spawn(move || -> Result<f64, ZkError> {
                    let client = connect();
                    start_line.wait();
                    let started = Instant::now();
                    work(t, client?)?;
                    Ok(started.elapsed().as_secs_f64())
                })
            })
            .collect();
        workers.into_iter().try_fold(0f64, |slowest, worker| {
            Ok(slowest.max(worker.join().expect("worker thread panicked")?))
        })
    })
}

/// Result of one networked workload run.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Operations completed across all connections; each sub-operation of a
    /// `multi` counts as one.
    pub total_ops: usize,
    /// Wall-clock duration of the measured phase in seconds.
    pub wall_seconds: f64,
    /// Aggregate throughput in operations per second.
    pub throughput_rps: f64,
}

/// Creates `setup` over one connection, then drives `per_client[t]` on
/// connection `t`, all connections at once.
fn run(
    server: &LiveServer,
    setup: &[Request],
    per_client: &[Vec<Request>],
    window: usize,
    check: &ReplyCheck,
) -> Result<NetRunReport, ZkError> {
    let mut admin = server.connect()?;
    create_all(&mut admin, setup)?;
    admin.close();

    let (addr, credentials) = (server.addr(), credentials(server.variant));
    let wall_seconds = fan_out(
        per_client.len(),
        || connect(addr, Arc::clone(&credentials)),
        |t, mut client| {
            drive(&mut client, &per_client[t], window, &mut check.clone())?;
            client.close();
            Ok(())
        },
    )?
    .max(f64::EPSILON);
    let total_ops = per_client
        .iter()
        .flatten()
        .map(|request| match request {
            Request::Multi(multi) => multi.ops.len(),
            _ => 1,
        })
        .sum();
    Ok(NetRunReport {
        clients: per_client.len(),
        total_ops,
        wall_seconds,
        throughput_rps: total_ops as f64 / wall_seconds,
    })
}

/// Runs `spec` with `ops_per_client` generated operations per connection in
/// `mode`, after creating its tree.
///
/// # Errors
///
/// Returns connection failures, error replies and wrong replies.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_workload(
    server: &LiveServer,
    spec: &WorkloadSpec,
    ops_per_client: usize,
    mode: RequestMode,
) -> Result<NetRunReport, ZkError> {
    let clients = spec.clients.max(1);
    let count = clients * ops_per_client;
    let mut per_client = vec![Vec::with_capacity(ops_per_client); clients];
    for op in spec.generate(count) {
        per_client[op.client].push(op.request);
    }
    // Every client's znode exists all run long, so LS lists at least those.
    let check = ReplyCheck::new(spec.payload, clients, true);
    run(server, &spec.setup_requests(count), &per_client, window(mode), &check)
}

/// Loads `workload`'s records, then runs its transaction phase over
/// `clients` connections in `mode`, `ops_per_client` operations each
/// (Figure 11). Records are shared, so a GET may return any connection's
/// write.
///
/// # Errors
///
/// Returns connection failures, error replies and wrong replies.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_ycsb(
    server: &LiveServer,
    workload: &YcsbWorkload,
    clients: usize,
    ops_per_client: usize,
    mode: RequestMode,
) -> Result<NetRunReport, ZkError> {
    let clients = clients.max(1);
    let mut per_client = vec![Vec::with_capacity(ops_per_client); clients];
    for (i, op) in workload.generate(clients * ops_per_client).into_iter().enumerate() {
        per_client[i % clients].push(op.request);
    }
    let check = ReplyCheck::new(workload.payload, 0, false);
    run(server, &workload.load_requests(), &per_client, window(mode), &check)
}

/// Runs `spec.clients` synchronous connections, each committing
/// `txns_per_client` atomic `multi` transactions generated from `spec`. The
/// report counts sub-operations, so throughput is comparable with single
/// operations: batching amortizes one round trip (and, in an ensemble, one
/// ZAB proposal) over `spec.batch_size` operations.
///
/// # Errors
///
/// Returns connection failures and error replies, and reports an aborted
/// batch (the generated batches always commit against a healthy server).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_multi_batches(
    server: &LiveServer,
    txns_per_client: usize,
    spec: &MultiSpec,
) -> Result<NetRunReport, ZkError> {
    let per_client: Vec<Vec<Request>> = (0..spec.clients.max(1))
        .map(|t| {
            let batches = spec.generate_for(t, txns_per_client).into_iter();
            batches.map(|batch| Request::Multi(MultiRequest { ops: batch.ops })).collect()
        })
        .collect();
    run(server, &spec.setup_requests(), &per_client, 1, &ReplyCheck::default())
}

/// Runs `spec.clients` synchronous connections, each committing
/// `txns_per_client` transactions of `spec`'s recipe (atomic rename or CAS
/// counter), counting sub-operations like [`run_multi_batches`]. The
/// generated chains assume in-order commits, so an aborted transaction (a
/// lost rename slot, a CAS version mismatch) fails the run.
///
/// # Errors
///
/// Returns connection failures and error replies, and reports an aborted
/// recipe transaction.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_recipes(
    server: &LiveServer,
    txns_per_client: usize,
    spec: &RecipeSpec,
) -> Result<NetRunReport, ZkError> {
    let clients = spec.clients.max(1);
    let setup: Vec<Request> = (0..clients).flat_map(|t| spec.setup_requests_for(t)).collect();
    let per_client: Vec<Vec<Request>> = (0..clients)
        .map(|t| {
            let txns = spec.generate_for(t, txns_per_client).into_iter();
            txns.map(|txn| Request::Multi(MultiRequest { ops: txn.ops })).collect()
        })
        .collect();
    run(server, &setup, &per_client, 1, &ReplyCheck::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::OpKind;
    use jute::records::{CreateMode, GetDataRequest};

    #[test]
    fn mixed_run_reports_all_operations() {
        let server = LiveServer::start(Variant::VanillaZk);
        let spec = WorkloadSpec::paper_mix(256, 4);
        let report = run_workload(&server, &spec, 50, RequestMode::Asynchronous).unwrap();
        assert_eq!(report.clients, 4);
        assert_eq!(report.total_ops, 200);
        assert!(report.throughput_rps > 0.0);
        // Every generated SET committed once, after the parent and the four
        // client znodes.
        let sets = spec.generate(200).iter().filter(|op| op.kind == OpKind::Set).count();
        assert_eq!(server.replica().last_zxid(), 5 + sets as i64);
        server.shutdown();
    }

    #[test]
    fn every_op_kind_runs_clean_in_both_modes_on_every_variant() {
        for variant in Variant::all() {
            for op in OpKind::all() {
                for mode in RequestMode::all() {
                    // A fresh server per run, as the figures use: CREATE
                    // names repeat from run to run.
                    let server = LiveServer::start(variant);
                    let spec = WorkloadSpec::single(op, 32, 2);
                    let report = run_workload(&server, &spec, 30, mode)
                        .unwrap_or_else(|err| panic!("{variant} {op} {mode}: {err}"));
                    assert_eq!(report.total_ops, 60);
                    server.shutdown();
                }
            }
        }
    }

    #[test]
    fn a_wrong_payload_fails_the_run() {
        let server = LiveServer::start(Variant::SecureKeeper);
        let mut client = server.connect().unwrap();
        client.create("/odd", vec![1, 2, 3, 4], CreateMode::Persistent).unwrap();
        let get = [Request::GetData(GetDataRequest { path: "/odd".into(), watch: false })];
        // Right length, but not one repeated byte.
        let err = drive(&mut client, &get, 1, &mut ReplyCheck::new(4, 0, false)).unwrap_err();
        assert!(matches!(err, ZkError::Marshalling { .. }), "{err:?}");
        // Wrong length.
        let err = drive(&mut client, &get, 1, &mut ReplyCheck::new(8, 0, false)).unwrap_err();
        assert!(matches!(err, ZkError::Marshalling { .. }), "{err:?}");
        // An error reply surfaces as its typed error.
        let missing = [Request::GetData(GetDataRequest { path: "/gone".into(), watch: false })];
        let err = drive(&mut client, &missing, 1, &mut ReplyCheck::new(4, 0, false)).unwrap_err();
        assert!(matches!(err, ZkError::NoNode { .. }), "{err:?}");
        client.close();
        server.shutdown();
    }

    #[test]
    fn ycsb_run_loads_records_and_checks_shared_reads() {
        let server = LiveServer::start(Variant::TlsZk);
        let workload = YcsbWorkload { record_count: 50, payload: 64, ..YcsbWorkload::default() };
        let report = run_ycsb(&server, &workload, 3, 40, RequestMode::Synchronous).unwrap();
        assert_eq!(report.total_ops, 120);
        assert!(server.replica().tree().contains(&YcsbWorkload::record_path(49)));
        server.shutdown();
    }

    #[test]
    fn recipe_runs_commit_their_chains_end_to_end() {
        let server = LiveServer::start(Variant::VanillaZk);

        // Atomic rename: after N committed renames each client's node sits
        // at slot N and no intermediate slot survives.
        let spec = RecipeSpec::atomic_rename(16, 2);
        let report = run_recipes(&server, 5, &spec).unwrap();
        assert_eq!(report.total_ops, 2 * 5 * 2);
        {
            let replica = server.replica();
            let tree = replica.tree();
            for client in 0..2 {
                assert!(tree.contains(&RecipeSpec::slot_path(client, 5)));
                for step in 0..5 {
                    assert!(!tree.contains(&RecipeSpec::slot_path(client, step)));
                }
            }
        }

        // CAS counter: the committed value equals the number of increments
        // and the version advanced once per transaction.
        let spec = RecipeSpec::cas_counter(3);
        let report = run_recipes(&server, 7, &spec).unwrap();
        assert_eq!(report.total_ops, 3 * 7 * 2);
        {
            let replica = server.replica();
            let tree = replica.tree();
            for client in 0..3 {
                let node = tree.get(&RecipeSpec::counter_path(client)).unwrap();
                assert_eq!(node.data(), 7u64.to_be_bytes());
                assert_eq!(node.stat().version, 7);
            }
        }
        server.shutdown();
    }

    #[test]
    fn multi_run_counts_sub_ops_and_commits_batches_atomically() {
        let server = LiveServer::start(Variant::VanillaZk);
        let spec = MultiSpec::batched_writes(6, 128, 3);
        let report = run_multi_batches(&server, 10, &spec).unwrap();
        assert_eq!(report.clients, 3);
        assert_eq!(report.total_ops, 3 * 10 * 6);
        assert!(report.throughput_rps > 0.0);
        // Each committed batch consumed exactly one zxid (after the parent
        // and the three client znodes), proving every batch travelled as a
        // single transaction.
        assert_eq!(server.replica().last_zxid(), 4 + 3 * 10);
        server.shutdown();
    }
}
