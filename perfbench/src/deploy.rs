//! Booting the members each workload runs on, loading their namespace, and
//! the checks made on the servers once a window has ended.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gateway::{Gateway, GatewayConfig, ShardMap};
use jute::multi::{first_error_of, Op};
use jute::records::{CreateMode, CreateRequest};
use opsplane::MetricsRegistry;
use securekeeper::integration::{SecureKeeperInterceptor, SecureKeeperNamer};
use securekeeper::path_crypto::PathCipher;
use securekeeper::SecureSessionCredentials;
use securekeeper::{secure_ensemble_replica, CounterEnclave, SecureKeeperConfig};
use zab::{NodeId, TcpNetwork};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::pipeline::RequestInterceptor;
use zkserver::session::MonotonicClock;
use zkserver::{
    EnsembleConfig, PeerTransport, PersistConfig, ReplicaPersistence, ZkEnsembleServer, ZkReplica,
    ZkTcpClient,
};

use crate::gen;
use crate::seams::{CountingTransport, SpanSink, TimedInterceptor};
use crate::spec::{Spec, Workload, SESSIONS};

/// Where durable members keep their data, relative to the directory the
/// benchmark runs in (the root of the checkout it was built from).
pub const DATA_ROOT: &str = ".bench_build/perfbench-data";

/// Creates per `multi` while loading the namespace. Batches of 1,024 made
/// no set-up cheaper and made `peak_rss_mib` and `setup_s` vary more from
/// run to run.
const LOAD_BATCH: usize = 64;

/// Session timeout requested by every benchmark client, in ms.
pub const SESSION_TIMEOUT_MS: i64 = 30_000;

/// How long followers get to apply the last commits after a window.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// The decorators of a traced deployment.
pub struct Tracing {
    /// Where every span goes.
    pub sink: Arc<SpanSink>,
    /// One interceptor timer per member.
    pub hooks: Vec<Arc<TimedInterceptor>>,
    /// One peer-traffic counter per member.
    pub transports: Vec<Arc<CountingTransport>>,
}

/// The running servers of one workload.
pub struct Deployment {
    /// The workload's namespace.
    pub spec: Arc<Spec>,
    /// The ensembles: one for `read-secure` (one member) and `write-secure`
    /// (three), one per shard for `mixed-gateway`.
    pub ensembles: Vec<Vec<ZkEnsembleServer>>,
    /// The gateway of `mixed-gateway`.
    pub gateway: Option<Gateway>,
    /// Live threads of the process just before the gateway started.
    pub threads_without_gateway: u64,
    /// The decorators, in a traced deployment.
    pub tracing: Option<Tracing>,
    secure: Option<SecureKeeperConfig>,
    data_dirs: Vec<PathBuf>,
}

fn data_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(DATA_ROOT).join(format!("{}-{n}-{label}", std::process::id()))
}

/// The replica of member `id`: SecureKeeper's when `config` is given, a
/// plain one otherwise. In a traced deployment its interceptor (the entry
/// enclave, or the plain path's passthrough) is wrapped in a timer.
fn replica(
    id: u32,
    config: Option<&SecureKeeperConfig>,
    tracing: Option<&mut Tracing>,
) -> Arc<ZkReplica> {
    let Some(tracing) = tracing else {
        return match config {
            Some(config) => secure_ensemble_replica(id, config).0,
            None => Arc::new(ZkReplica::new(id)),
        };
    };
    let mut timed = |inner: Arc<dyn RequestInterceptor>| {
        let timed = Arc::new(TimedInterceptor::new(inner, id, Arc::clone(&tracing.sink)));
        tracing.hooks.push(Arc::clone(&timed));
        timed as Arc<dyn RequestInterceptor>
    };
    let Some(config) = config else {
        let plain = ZkReplica::new(id);
        let interceptor = timed(plain.interceptor());
        return Arc::new(plain.with_interceptor(interceptor));
    };
    // The same parts `secure_ensemble_replica` installs, with the entry
    // interceptor wrapped in a timer.
    let interceptor = Arc::new(SecureKeeperInterceptor::new(config));
    let counter = Arc::new(
        CounterEnclave::new(interceptor.epc(), &config.storage_key, config.cost_model.clone())
            .expect("a fresh EPC fits one counter enclave"),
    );
    Arc::new(
        ZkReplica::new(id)
            .with_interceptor(timed(interceptor))
            .with_namer(Arc::new(SecureKeeperNamer::new(counter)))
            .with_clock(Arc::new(MonotonicClock::new())),
    )
}

impl Deployment {
    /// Boots the workload's servers and loads its namespace. With `traced`
    /// the seam decorators are spliced in.
    ///
    /// # Errors
    ///
    /// Describes a failed bind, boot or load.
    pub fn start(spec: Arc<Spec>, traced: bool) -> Result<Deployment, String> {
        let secure = spec
            .workload
            .secure()
            .then(|| SecureKeeperConfig::with_label(&format!("perfbench-{}", spec.seed)));
        let mut deployment = Deployment {
            spec: Arc::clone(&spec),
            ensembles: Vec::new(),
            gateway: None,
            threads_without_gateway: 0,
            tracing: traced.then(|| Tracing {
                sink: Arc::new(SpanSink::default()),
                hooks: Vec::new(),
                transports: Vec::new(),
            }),
            secure,
            data_dirs: Vec::new(),
        };
        match spec.workload {
            Workload::ReadSecure => deployment.start_ensemble(1, false)?,
            Workload::WriteSecure => deployment.start_ensemble(3, true)?,
            Workload::MixedGateway => {
                deployment.start_ensemble(1, true)?;
                deployment.start_ensemble(1, true)?;
            }
        }
        for shard in 0..deployment.ensembles.len() {
            deployment.load(shard)?;
        }
        if spec.workload == Workload::MixedGateway {
            let map = ShardMap::new(2, &[("/", 0), ("/t0", 0), ("/t1", 1)])?;
            let addrs = deployment
                .ensembles
                .iter()
                .map(|members| members.iter().map(ZkEnsembleServer::client_addr).collect())
                .collect();
            deployment.threads_without_gateway = crate::seams::thread_count();
            let gateway = Gateway::bind("127.0.0.1:0", GatewayConfig::new(map, addrs))
                .map_err(|err| format!("bind gateway: {err}"))?;
            deployment.gateway = Some(gateway);
        }
        Ok(deployment)
    }

    fn start_ensemble(&mut self, size: u32, durable: bool) -> Result<(), String> {
        let transports: Vec<TcpNetwork> = (1..=size)
            .map(|id| TcpNetwork::bind(NodeId(id), "127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|err| format!("bind peer transport: {err}"))?;
        let peers: HashMap<NodeId, SocketAddr> =
            transports.iter().map(|t| (t.id(), t.local_addr())).collect();
        let mut members = Vec::new();
        for transport in transports {
            let id = transport.id().0;
            let replica = replica(id, self.secure.as_ref(), self.tracing.as_mut());
            let transport: Arc<dyn PeerTransport> = match &mut self.tracing {
                Some(tracing) => {
                    let counting = Arc::new(CountingTransport::new(
                        Arc::new(transport),
                        Arc::clone(&tracing.sink),
                    ));
                    tracing.transports.push(Arc::clone(&counting));
                    counting
                }
                None => Arc::new(transport),
            };
            let persistence = if durable {
                let dir = data_dir(&format!("e{}m{id}", self.ensembles.len()));
                self.data_dirs.push(dir.clone());
                let persistence = ReplicaPersistence::open(&dir, PersistConfig::default())
                    .map_err(|err| format!("open {}: {err}", dir.display()))?;
                Some(persistence)
            } else {
                None
            };
            let member = ZkEnsembleServer::start_custom(
                transport,
                peers.clone(),
                "127.0.0.1:0",
                replica,
                EnsembleConfig::default(),
                persistence,
            )
            .map_err(|err| format!("start member {id}: {err}"))?;
            members.push(member);
        }
        self.ensembles.push(members);
        Ok(())
    }

    /// Credentials of a client session: a fresh session key for the
    /// SecureKeeper workloads, a plaintext session otherwise.
    pub fn credentials(&self) -> Arc<dyn SessionCredentials> {
        if self.secure.is_some() {
            Arc::new(SecureSessionCredentials)
        } else {
            Arc::new(PlainCredentials)
        }
    }

    /// Creates the namespace of `shard` with batched `multi` creates sent to
    /// the shard's first member (the leader).
    fn load(&self, shard: usize) -> Result<(), String> {
        let spec = &self.spec;
        let addr = self.ensembles[shard][0].client_addr();
        let mut client = ZkTcpClient::connect_with(addr, self.credentials(), SESSION_TIMEOUT_MS)
            .map_err(|err| format!("connect loader: {err}"))?;
        let parents = spec.parents(shard).into_iter().map(|path| (path, Vec::new()));
        let keys = (0..spec.keys)
            .filter(|&k| spec.shard_of(k) == shard)
            .map(|k| (spec.key_path(k), gen::payload(spec.seed, k as u32, 0, spec.payload)));
        let nodes: Vec<(String, Vec<u8>)> = parents.chain(keys).collect();
        // Parents precede their children, and a multi applies its creates in
        // order, so a parent may share a batch with its children.
        for batch in nodes.chunks(LOAD_BATCH) {
            let ops = batch
                .iter()
                .map(|(path, data)| {
                    Op::Create(CreateRequest {
                        path: path.clone(),
                        data: data.clone(),
                        mode: CreateMode::Persistent,
                    })
                })
                .collect();
            let results = client.multi(ops).map_err(|err| format!("load multi: {err}"))?;
            if let Some((index, code)) = first_error_of(&results) {
                return Err(format!("load multi aborted at {}: {code:?}", batch[index].0));
            }
        }
        client.close();
        Ok(())
    }

    /// The address and member id each session connects to: both on the one
    /// `read-secure` member; the leader and a follower for `write-secure`;
    /// both on the gateway (member 0, no enclave) for `mixed-gateway`.
    pub fn session_targets(&self) -> [(SocketAddr, u32); SESSIONS] {
        match self.spec.workload {
            Workload::ReadSecure => {
                let addr = self.ensembles[0][0].client_addr();
                [(addr, 1), (addr, 1)]
            }
            Workload::WriteSecure => {
                [(self.ensembles[0][0].client_addr(), 1), (self.ensembles[0][1].client_addr(), 2)]
            }
            Workload::MixedGateway => {
                let addr = self.gateway.as_ref().expect("gateway is up").local_addr();
                [(addr, 0), (addr, 0)]
            }
        }
    }

    /// Every member, ensemble by ensemble.
    pub fn members(&self) -> impl Iterator<Item = &ZkEnsembleServer> {
        self.ensembles.iter().flatten()
    }

    /// The metric registry of every member, in [`Deployment::members`] order.
    pub fn member_registries(&self) -> Vec<Arc<MetricsRegistry>> {
        self.members().map(|m| m.metrics().registry()).collect()
    }

    /// Waits until every member of each ensemble has applied the same last
    /// zxid, then checks that their trees hold the same nodes, payloads and
    /// versions.
    ///
    /// # Errors
    ///
    /// Describes the first divergence.
    pub fn check_converged(&self) -> Result<(), String> {
        for members in &self.ensembles {
            let deadline = Instant::now() + SETTLE_TIMEOUT;
            loop {
                let zxids: Vec<i64> =
                    members.iter().map(ZkEnsembleServer::last_applied_zxid).collect();
                if zxids.iter().all(|&z| z == zxids[0]) {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("members did not converge: last applied zxids {zxids:?}"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let reference = members[0].replica();
            let reference = reference.tree();
            let expected = reference.nodes_sorted();
            for member in &members[1..] {
                let replica = member.replica();
                let tree = replica.tree();
                let nodes = tree.nodes_sorted();
                if nodes.len() != expected.len() {
                    return Err(format!(
                        "member {} holds {} nodes, member {} holds {}",
                        member.id(),
                        nodes.len(),
                        members[0].id(),
                        expected.len()
                    ));
                }
                for ((path_a, a), (path_b, b)) in expected.iter().zip(&nodes) {
                    if path_a != path_b
                        || a.data() != b.data()
                        || a.stat().version != b.stat().version
                        || a.stat().mzxid != b.stat().mzxid
                    {
                        return Err(format!(
                            "member {} diverges from member {} at {path_b}",
                            member.id(),
                            members[0].id()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// For the secure workloads: checks that no stored path has a plaintext
    /// component of the namespace and no stored payload carries the payload
    /// marker, and that every written key holds `versions[key]` on every
    /// member (no lost or duplicated write).
    ///
    /// # Errors
    ///
    /// Describes the first plaintext leak or version mismatch.
    pub fn check_sealed(&self, versions: &[u32]) -> Result<(), String> {
        let Some(config) = &self.secure else { return Ok(()) };
        let plaintext = self.spec.plaintext_components();
        let cipher = PathCipher::new(&config.storage_key);
        let sealed_keys: Vec<(usize, String)> = (0..self.spec.keys)
            .filter(|&k| self.spec.owner(k).is_some())
            .map(|k| {
                let path = cipher.encrypt_path(&self.spec.key_path(k)).expect("seal a valid path");
                (k, path)
            })
            .collect();
        for member in self.members() {
            let replica = member.replica();
            let tree = replica.tree();
            for (path, node) in tree.nodes_sorted() {
                if let Some(leak) = path.split('/').find(|c| plaintext.contains(*c)) {
                    return Err(format!(
                        "member {} stores plaintext component {leak}",
                        member.id()
                    ));
                }
                if node.data().windows(gen::MARKER.len()).any(|w| w == gen::MARKER) {
                    return Err(format!("member {} stores a plaintext payload", member.id()));
                }
            }
            for (key, path) in &sealed_keys {
                let stored = tree.get(path).map(|node| node.stat().version);
                if stored != Some(versions[*key] as i32) {
                    return Err(format!(
                        "member {} holds key {key} at version {stored:?}, expected {}",
                        member.id(),
                        versions[*key]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Size of every WAL segment file of the durable members. The
    /// `zk_wal_bytes_total` series mirrors the bytes segments hold, which
    /// falls when a snapshot purges them, so bytes appended are measured
    /// here, as growth of the segment files.
    pub fn wal_files(&self) -> HashMap<PathBuf, u64> {
        let mut sizes = HashMap::new();
        for dir in &self.data_dirs {
            let Ok(entries) = std::fs::read_dir(dir.join("log")) else { continue };
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    sizes.insert(entry.path(), meta.len());
                }
            }
        }
        sizes
    }

    /// Stops every server and removes the data directories.
    pub fn shutdown(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        for members in self.ensembles {
            for member in members {
                member.shutdown();
            }
        }
        for dir in &self.data_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
