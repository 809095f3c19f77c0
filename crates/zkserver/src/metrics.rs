//! The server's metric surface: every counter, gauge, and histogram one
//! member exports through `GET /metrics` and the `mntr` admin word.
//!
//! [`ServerMetrics`] registers the full family set up front (so a scrape of
//! an idle member already shows every metric at zero) and hands out the
//! lock-free handles the hot paths update. Values owned by other subsystems
//! — the data tree, the session table, the WAL — are bridged with
//! collectors: closures holding [`Weak`] references that refresh gauges and
//! advance monotonic mirror counters right before each render, so a scrape
//! can never deadlock against, or keep alive, the component it observes.
//!
//! The exported family set is documented metric-by-metric in
//! `docs/METRICS.md`; a guard test asserts the two lists never diverge.

use std::sync::{Arc, Weak};
use std::time::Instant;

use opsplane::metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, READ_LATENCY_BUCKETS, STAGE_DURATION_BUCKETS,
    WRITE_LATENCY_BUCKETS,
};
use trace::Stage;

use crate::server::ZkReplica;

/// The pipeline stages a server process executes, in request order — the
/// label set of the `zk_stage_duration_seconds` family. Client- and
/// gateway-side stages (`client_call`, `gw_route`) are exported by their
/// own processes, not here.
const SERVER_STAGES: [Stage; 8] = [
    Stage::Open,
    Stage::QueueWait,
    Stage::Propose,
    Stage::QuorumAck,
    Stage::WalFsync,
    Stage::Apply,
    Stage::Seal,
    Stage::ReplyFlush,
];

/// Per-stage pipeline latency histograms (`zk_stage_duration_seconds`),
/// indexed by [`trace::Stage`] so hot paths observe without string lookups.
/// Stages this process never executes hold no handle and observe as a no-op.
pub struct StageHistograms {
    histograms: [Option<Histogram>; Stage::ALL.len()],
}

impl StageHistograms {
    fn new(registry: &MetricsRegistry) -> Self {
        let mut histograms: [Option<Histogram>; Stage::ALL.len()] = Default::default();
        for stage in SERVER_STAGES {
            histograms[stage as usize] = Some(registry.histogram_with(
                "zk_stage_duration_seconds",
                &[("stage", stage.name())],
                "Request pipeline stage duration in seconds, by stage.",
                &STAGE_DURATION_BUCKETS,
            ));
        }
        StageHistograms { histograms }
    }

    /// Records one execution of `stage` that took `nanos` nanoseconds.
    pub fn observe_ns(&self, stage: Stage, nanos: u64) {
        if let Some(histogram) = &self.histograms[stage as usize] {
            histogram.observe(nanos as f64 / 1e9);
        }
    }
}

/// All metric handles of one server, plus the registry that renders them.
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    /// Requests answered, by class (`read`, `write`, `admin` covers the
    /// four-letter words).
    pub requests_read: Counter,
    /// Write-class requests answered.
    pub requests_write: Counter,
    /// Requests that returned an in-band error response.
    pub request_errors: Counter,
    /// Read-request service latency.
    pub latency_read: Histogram,
    /// Write-request service latency (includes replication for ensembles).
    pub latency_write: Histogram,
    /// Requests rejected with the `Throttled` error code.
    pub throttled: Counter,
    /// Four-letter admin words answered.
    pub admin_commands: Counter,
    /// Client connections currently open.
    pub connections_open: Gauge,
    /// Sessions expired by the ticker.
    pub sessions_expired: Counter,
    /// Watch notifications pushed to clients.
    pub watch_events: Counter,
    /// ZAB proposals initiated by this member as leader.
    pub zab_proposals: Counter,
    /// ZAB transactions committed (applied to the tree) on this member.
    pub zab_commits: Counter,
    /// Writes forwarded to the leader by this member as follower.
    pub zab_forwards: Counter,
    /// Elections this member started as candidate.
    pub zab_elections_started: Counter,
    /// Elections this member won.
    pub zab_elections_won: Counter,
    /// Current ZAB epoch.
    pub zab_epoch: Gauge,
    /// Current role: 0 = electing, 1 = follower, 2 = leader.
    pub zab_role: Gauge,
    /// Entries (committed or not) held in the in-memory replication log.
    pub zab_log_entries: Gauge,
    /// Payload bytes of the committed entries the replication log retains.
    pub zab_log_retained_bytes: Gauge,
    /// Snapshots shipped to lagging peers by this member as leader.
    pub zab_snapshots_shipped: Counter,
    /// Log transactions shipped in sync responses by this member as leader.
    pub zab_sync_txns_shipped: Counter,
    /// Leader-shipped snapshots installed by this member.
    pub zab_snapshots_installed: Counter,
    /// WAL fsync batches (mirrored from the persistence layer).
    pub wal_fsyncs: Counter,
    /// Bytes appended to the WAL (mirrored from the persistence layer).
    pub wal_bytes: Counter,
    /// Tree snapshots written to disk (mirrored from persistence).
    pub snapshots_taken: Counter,
    /// Whether a graceful drain is in progress (0/1).
    pub draining: Gauge,
    /// Per-stage pipeline latency (`zk_stage_duration_seconds{stage=...}`).
    pub stages: StageHistograms,
}

impl ServerMetrics {
    /// Creates the full metric surface on a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServerMetrics {
            requests_read: registry.counter_with(
                "zk_requests_total",
                &[("class", "read")],
                "Client requests answered, by request class.",
            ),
            requests_write: registry.counter_with(
                "zk_requests_total",
                &[("class", "write")],
                "Client requests answered, by request class.",
            ),
            request_errors: registry.counter(
                "zk_request_errors_total",
                "Requests that returned an in-band error response.",
            ),
            latency_read: registry.histogram_with(
                "zk_request_latency_seconds",
                &[("class", "read")],
                "Request service latency in seconds, by request class.",
                &READ_LATENCY_BUCKETS,
            ),
            latency_write: registry.histogram_with(
                "zk_request_latency_seconds",
                &[("class", "write")],
                "Request service latency in seconds, by request class.",
                &WRITE_LATENCY_BUCKETS,
            ),
            throttled: registry.counter(
                "zk_throttled_total",
                "Requests rejected because the session exceeded its rate budget.",
            ),
            admin_commands: registry.counter(
                "zk_admin_commands_total",
                "Four-letter admin words answered on the client port.",
            ),
            connections_open: registry
                .gauge("zk_connections_open", "Client connections currently open."),
            sessions_expired: registry.counter(
                "zk_sessions_expired_total",
                "Sessions expired by the server's timeout sweep.",
            ),
            watch_events: registry.counter(
                "zk_watch_events_total",
                "Watch notifications pushed to client connections.",
            ),
            zab_proposals: registry.counter(
                "zk_zab_proposals_total",
                "ZAB proposals initiated by this member as leader.",
            ),
            zab_commits: registry.counter(
                "zk_zab_commits_total",
                "ZAB transactions committed and applied to the tree.",
            ),
            zab_forwards: registry.counter(
                "zk_zab_forwards_total",
                "Writes forwarded to the leader by this member as follower.",
            ),
            zab_elections_started: registry.counter(
                "zk_zab_elections_started_total",
                "Elections this member started as candidate.",
            ),
            zab_elections_won: registry
                .counter("zk_zab_elections_won_total", "Elections this member won."),
            zab_epoch: registry.gauge("zk_zab_epoch", "Current ZAB epoch."),
            zab_role: registry
                .gauge("zk_zab_role", "Current role: 0 = electing, 1 = follower, 2 = leader."),
            zab_log_entries: registry.gauge(
                "zk_zab_log_entries",
                "Entries (committed or not) held in the in-memory replication log.",
            ),
            zab_log_retained_bytes: registry.gauge(
                "zk_zab_log_retained_bytes",
                "Payload bytes of the committed entries the in-memory replication log retains.",
            ),
            zab_snapshots_shipped: registry.counter(
                "zk_zab_snapshots_shipped_total",
                "State snapshots shipped to lagging peers by this member as leader.",
            ),
            zab_sync_txns_shipped: registry.counter(
                "zk_zab_sync_txns_shipped_total",
                "Log transactions shipped in NewLeaderSync responses by this member.",
            ),
            zab_snapshots_installed: registry.counter(
                "zk_zab_snapshots_installed_total",
                "Leader-shipped snapshots installed by this member.",
            ),
            wal_fsyncs: registry
                .counter("zk_wal_fsyncs_total", "Write-ahead-log fsync batches (group commits)."),
            wal_bytes: registry
                .counter("zk_wal_bytes_total", "Bytes appended to the write-ahead log."),
            snapshots_taken: registry
                .counter("zk_snapshots_taken_total", "Tree snapshots written to disk."),
            draining: registry
                .gauge("zk_draining", "1 while a graceful drain is in progress, else 0."),
            stages: StageHistograms::new(&registry),
            registry,
        };
        // Gauges refreshed by collectors still belong to the always-visible
        // family set; register them (and the uptime clock) up front.
        metrics.registry.gauge("zk_sessions_active", "Sessions currently active.");
        metrics.registry.gauge("zk_watches_pending", "Watches armed and not yet fired.");
        metrics.registry.gauge("zk_znodes", "Znodes in the data tree.");
        metrics
            .registry
            .gauge("zk_approx_memory_bytes", "Approximate bytes held by the data tree.");
        metrics.registry.gauge("zk_last_zxid", "Zxid of the most recently applied write.");
        metrics.registry.counter(
            "zk_path_cache_hits_total",
            "Secure-mode path-cache lookups answered from the cache.",
        );
        metrics.registry.counter(
            "zk_path_cache_misses_total",
            "Secure-mode path-cache lookups that had to compute the mapping.",
        );
        metrics.registry.counter(
            "zk_secure_frames_sealed_total",
            "Frames sealed (encrypted) by the entry interceptor.",
        );
        metrics.registry.counter(
            "zk_secure_frames_opened_total",
            "Frames opened (decrypted) by the entry interceptor.",
        );
        metrics
            .registry
            .gauge("zk_entry_enclaves", "Per-session entry enclaves currently instantiated.");
        // Info gauge: always 1, the label names the AES-GCM backend this
        // host's entry enclaves run (`aesni-clmul` or `portable`).
        metrics
            .registry
            .gauge_with(
                "zk_crypto_backend",
                &[("backend", zkcrypto::gcm::backend_name())],
                "AES-GCM backend selected on this host (info gauge, always 1).",
            )
            .set(1);
        let uptime = metrics.registry.gauge("zk_uptime_seconds", "Seconds since server start.");
        let started = Instant::now();
        metrics.registry.register_collector(move || uptime.set(started.elapsed().as_secs() as i64));
        metrics
    }

    /// The registry behind this metric surface (what the ops endpoint and
    /// `mntr` render).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Bridges the replica-owned values — tree size, session table, armed
    /// watches, interceptor counters — into the registry via a collector
    /// holding a weak reference, so a scrape neither keeps the replica
    /// alive nor races its shutdown.
    pub fn attach_replica(&self, replica: &Arc<ZkReplica>) {
        let sessions = self.registry.gauge("zk_sessions_active", "");
        let watches = self.registry.gauge("zk_watches_pending", "");
        let znodes = self.registry.gauge("zk_znodes", "");
        let memory = self.registry.gauge("zk_approx_memory_bytes", "");
        let last_zxid = self.registry.gauge("zk_last_zxid", "");
        let cache_hits = self.registry.counter("zk_path_cache_hits_total", "");
        let cache_misses = self.registry.counter("zk_path_cache_misses_total", "");
        let sealed = self.registry.counter("zk_secure_frames_sealed_total", "");
        let opened = self.registry.counter("zk_secure_frames_opened_total", "");
        let enclaves = self.registry.gauge("zk_entry_enclaves", "");
        let weak: Weak<ZkReplica> = Arc::downgrade(replica);
        self.registry.register_collector(move || {
            let Some(replica) = weak.upgrade() else { return };
            sessions.set(replica.session_count() as i64);
            watches.set(replica.watch_count() as i64);
            znodes.set(replica.tree().node_count() as i64);
            memory.set(replica.memory_bytes() as i64);
            last_zxid.set(replica.last_zxid());
            let stats = replica.interceptor().stats();
            cache_hits.raise_to(stats.path_cache_hits);
            cache_misses.raise_to(stats.path_cache_misses);
            sealed.raise_to(stats.frames_sealed);
            opened.raise_to(stats.frames_opened);
            enclaves.set(stats.entry_enclaves as i64);
        });
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_family_set_is_visible_on_an_idle_server() {
        let metrics = ServerMetrics::new();
        let names = metrics.registry().family_names();
        for expected in [
            "zk_requests_total",
            "zk_request_latency_seconds",
            "zk_stage_duration_seconds",
            "zk_zab_commits_total",
            "zk_wal_fsyncs_total",
            "zk_path_cache_hits_total",
            "zk_uptime_seconds",
            "zk_draining",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing family {expected}");
        }
    }

    #[test]
    fn crypto_backend_info_gauge_names_the_selected_backend() {
        let text = ServerMetrics::new().registry().render();
        let series =
            format!("zk_crypto_backend{{backend=\"{}\"}} 1", zkcrypto::gcm::backend_name());
        assert!(text.contains(&series), "{text}");
    }

    #[test]
    fn replica_collector_refreshes_tree_gauges() {
        use jute::records::{CreateMode, CreateRequest};
        use jute::Request;

        let metrics = ServerMetrics::new();
        let replica = Arc::new(ZkReplica::new(1));
        metrics.attach_replica(&replica);
        let session = replica.connect(30_000).session_id;
        replica.handle_request(
            session,
            &Request::Create(CreateRequest {
                path: "/observed".into(),
                data: b"x".to_vec(),
                mode: CreateMode::Persistent,
            }),
        );
        let text = metrics.registry().render();
        assert!(text.contains("zk_sessions_active 1"), "{text}");
        assert!(text.contains("zk_last_zxid 1"), "{text}");
        drop(replica);
        // With the replica gone the collector is a no-op, not a crash.
        let _ = metrics.registry().render();
    }
}
