//! One benchmark run: set up, drive the closed loops for the window, check
//! the outputs, and turn what was measured into the named metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::deploy::Deployment;
use crate::seams::{
    delta, histogram_mean_us, now_ns, HookTotals, PeerTotals, ProcSample, RegistrySnapshot,
    ThreadCpu,
};
use crate::session::{Choosers, ClientTotals, Session, Violation};
use crate::spec::{Spec, SESSIONS};
use crate::window::{drive, median, percentile, ratio, Window};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the JSON result line: every end-to-end metric of
    /// `BENCHMARK.json` in an untraced run, every per-layer one in a traced
    /// run.
    pub metrics: Vec<Metric>,
    /// Figures printed but not in `BENCHMARK.json`: end-to-end ones that
    /// repeat too poorly on a shared host to bound a regression, and layer
    /// times that read 0 on the workloads that skip the layer.
    pub printed: Vec<Metric>,
    /// Context: sample counts, slices, set-up times, span file.
    pub notes: Vec<String>,
    /// Calls completed or failed in the measured window.
    pub attempted: u64,
    /// Calls the service failed or refused.
    pub failed: u64,
}

impl Report {
    fn new(window: &Window) -> Report {
        Report { attempted: window.ok + window.failed, failed: window.failed, ..Report::default() }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    fn printed(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push(Metric { name: name.to_string(), value, unit });
    }
}

fn connect_sessions(deployment: &Deployment) -> Result<Vec<Session>, String> {
    let spec = &deployment.spec;
    let choosers = Choosers::new(spec);
    let sink = deployment.tracing.as_ref().map(|t| Arc::clone(&t.sink));
    deployment
        .session_targets()
        .into_iter()
        .enumerate()
        .map(|(index, target)| {
            Session::connect(
                index,
                Arc::clone(spec),
                choosers.clone(),
                target,
                deployment.credentials(),
                sink.clone(),
            )
        })
        .collect()
}

/// The output checks made after every window: each session reads back
/// what it wrote, every ensemble converges on identical trees, the secure
/// members hold no plaintext, and no election ran.
fn check_outputs(
    deployment: &Deployment,
    sessions: Vec<Session>,
    elections: f64,
) -> Result<(), Violation> {
    let mut versions = vec![0u32; deployment.spec.keys];
    for mut session in sessions {
        session.check_own_writes()?;
        for &key in session.own_keys() {
            versions[key] = session.versions()[key];
        }
        session.close();
    }
    deployment.check_converged().map_err(Violation)?;
    deployment.check_sealed(&versions).map_err(Violation)?;
    if elections != 0.0 {
        return Err(Violation(format!("{elections} elections ran during the window")));
    }
    Ok(())
}

/// The series every registry delta below reads.
const ELECTIONS: &str = "zk_zab_elections_started_total";
const COMMITS: &str = "zk_zab_commits_total";
const READ_LATENCY: &str = "zk_request_latency_seconds{class=\"read\"}";
const WRITE_LATENCY: &str = "zk_request_latency_seconds{class=\"write\"}";
const GATEWAY_ROUTE: &str = "gw_stage_duration_seconds{stage=\"route\"}";

fn stage(name: &str) -> String {
    format!("zk_stage_duration_seconds{{stage=\"{name}\"}}")
}

/// Everything read at one edge of the window.
struct Snapshot {
    members: Vec<RegistrySnapshot>,
    gateway: Vec<RegistrySnapshot>,
    hooks: HookTotals,
    peers: PeerTotals,
    process: ProcSample,
    wal_files: HashMap<PathBuf, u64>,
}

impl Snapshot {
    fn take(deployment: &Deployment) -> Snapshot {
        let tracing = deployment.tracing.as_ref();
        Snapshot {
            members: deployment
                .member_registries()
                .iter()
                .map(|r| RegistrySnapshot::take(r))
                .collect(),
            gateway: deployment
                .gateway
                .iter()
                .map(|g| RegistrySnapshot::take(&g.registry()))
                .collect(),
            hooks: tracing
                .iter()
                .flat_map(|t| &t.hooks)
                .fold(HookTotals::default(), |sum, hook| sum.plus(&hook.totals())),
            peers: tracing
                .iter()
                .flat_map(|t| &t.transports)
                .fold(PeerTotals::default(), |sum, link| sum.plus(&link.totals())),
            process: ProcSample::take(),
            wal_files: deployment.wal_files(),
        }
    }
}

/// A measured window with the state on both of its edges.
struct Measured {
    window: Window,
    before: Snapshot,
    after: Snapshot,
    client: ClientTotals,
    /// Largest size each WAL segment file reached in the window (traced
    /// runs only).
    wal_peaks: HashMap<PathBuf, u64>,
}

impl Measured {
    /// Registry delta of `series` summed over all members.
    fn members(&self, series: &str) -> f64 {
        delta(&self.before.members, &self.after.members, series)
    }

    /// Mean of a member histogram over the window, in microseconds.
    fn members_mean_us(&self, series: &str) -> f64 {
        histogram_mean_us(&self.before.members, &self.after.members, series)
    }

    /// Bytes appended to WAL segments during the window: the largest size
    /// each segment file reached, less its size when the window opened. A
    /// snapshot rolls to a new segment and purges the old ones, so sizes
    /// are sampled every [`crate::window::TICK`]; appends in the last tick
    /// before a purge are missed.
    fn wal_bytes_appended(&self) -> f64 {
        self.wal_peaks
            .iter()
            .map(|(file, &size)| {
                size.saturating_sub(self.before.wal_files.get(file).copied().unwrap_or(0))
            })
            .sum::<u64>() as f64
    }

    /// Process CPU time per successful call, in microseconds.
    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.after.process.cpu_us - self.before.process.cpu_us, self.window.ok as f64)
    }

    /// Mean server-side latency of every client request, in microseconds.
    fn server_mean_us(&self) -> f64 {
        let count = self.members(&format!("{READ_LATENCY}_count"))
            + self.members(&format!("{WRITE_LATENCY}_count"));
        let sum = self.members(&format!("{READ_LATENCY}_sum"))
            + self.members(&format!("{WRITE_LATENCY}_sum"));
        ratio(sum, count) * 1e6
    }
}

/// Drives `sessions` on `deployment` for `seconds`, then runs the output
/// checks. The sink (when traced) records only inside the window.
fn measure(
    deployment: &Deployment,
    mut sessions: Vec<Session>,
    seconds: f64,
) -> Result<Measured, Violation> {
    let sink = deployment.tracing.as_ref().map(|t| Arc::clone(&t.sink));
    let mut before = None;
    let mut after = None;
    let mut wal_peaks = HashMap::new();
    let window = drive(
        &mut sessions,
        deployment.spec.seed,
        seconds,
        || {
            before = Some(Snapshot::take(deployment));
            if let Some(sink) = &sink {
                sink.set_recording(true);
            }
        },
        || {
            if sink.is_some() {
                for (file, size) in deployment.wal_files() {
                    let peak = wal_peaks.entry(file).or_insert(0);
                    *peak = (*peak).max(size);
                }
            }
        },
        || {
            if let Some(sink) = &sink {
                sink.set_recording(false);
            }
            after = Some(Snapshot::take(deployment));
        },
    )?;
    let after = after.expect("the window closed");
    for (file, &size) in &after.wal_files {
        let peak = wal_peaks.entry(file.clone()).or_insert(0);
        *peak = (*peak).max(size);
    }
    let client = sessions.iter().fold(ClientTotals::default(), |sum, s| ClientTotals {
        calls: sum.calls + s.totals.calls,
        submit_ns: sum.submit_ns + s.totals.submit_ns,
        wait_ns: sum.wait_ns + s.totals.wait_ns,
    });
    let measured =
        Measured { window, before: before.expect("the window opened"), after, client, wal_peaks };
    check_outputs(deployment, sessions, measured.members(ELECTIONS))?;
    Ok(measured)
}

/// A failed run: set-up trouble, or a wrong answer.
#[derive(Debug)]
pub enum RunError {
    /// The deployment could not be built or loaded.
    Setup(String),
    /// An output check failed.
    Violation(String),
}

impl From<Violation> for RunError {
    fn from(violation: Violation) -> Self {
        RunError::Violation(violation.0)
    }
}

/// How long one set-up took: on the clock, and in CPU time of all threads.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTime {
    wall_s: f64,
    cpu_s: f64,
}

/// Boots, loads and connects.
fn set_up(
    spec: &Arc<Spec>,
    traced: bool,
) -> Result<(Deployment, Vec<Session>, SetupTime), RunError> {
    let started = now_ns();
    let cpu = ThreadCpu::take();
    let deployment = Deployment::start(Arc::clone(spec), traced).map_err(RunError::Setup)?;
    let sessions = connect_sessions(&deployment).map_err(RunError::Setup)?;
    let took = SetupTime {
        wall_s: (now_ns() - started) as f64 / 1e9,
        cpu_s: ThreadCpu::take().seconds_since(&cpu),
    };
    Ok((deployment, sessions, took))
}

/// Sets up and measures one deployment, which is returned still running.
fn set_up_and_measure(
    spec: &Arc<Spec>,
    traced: bool,
    seconds: f64,
) -> Result<(Measured, Deployment, SetupTime), RunError> {
    let (deployment, sessions, setup) = set_up(spec, traced)?;
    match measure(&deployment, sessions, seconds) {
        Ok(measured) => Ok((measured, deployment, setup)),
        Err(violation) => {
            deployment.shutdown();
            Err(violation.into())
        }
    }
}

/// The untraced run. Gated: `setup_s` (median CPU seconds of several
/// set-ups) and `peak_rss_mib`. Printed with their sample counts but not
/// gated: throughput, latency percentiles, write latency, error rate, CPU
/// per call and set-up time on the clock.
///
/// # Errors
///
/// A failed set-up or a failed output check.
pub fn run_untraced(spec: Spec, seconds: f64) -> Result<Report, RunError> {
    let spec = Arc::new(spec);
    let (measured, deployment, first_setup) = set_up_and_measure(&spec, false, seconds)?;
    deployment.shutdown();
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPEATS {
        let (deployment, sessions, took) = set_up(&spec, false)?;
        setups.push(took);
        sessions.into_iter().for_each(Session::close);
        deployment.shutdown();
    }

    let window = &measured.window;
    let mut report = Report::new(window);
    let mut cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    let mut wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    report.metric("setup_s", median(&mut cpu), "s");
    // Read as the window closed: before the latency samples are merged and
    // sorted, and before the extra set-ups.
    report.metric("peak_rss_mib", measured.after.process.peak_rss_mib, "MiB");
    let all = window.latencies_us(false);
    let writes = window.latencies_us(true);
    report.printed("throughput_ops_s", window.throughput(), "ops/s");
    report.printed("latency_p50_us", percentile(&all, 0.50), "us");
    report.printed("latency_p99_us", percentile(&all, 0.99), "us");
    if !writes.is_empty() {
        report.printed("write_p50_us", percentile(&writes, 0.50), "us");
    }
    report.printed("error_rate", ratio(window.failed as f64, report.attempted as f64), "fraction");
    report.printed("cpu_us_per_op", measured.cpu_us_per_op(), "us/op");
    report.printed("setup_wall_s", median(&mut wall), "s");

    report.notes.push(format!(
        "throughput is the median of one-second slices {:.0?}",
        window.slice_rates()
    ));
    report.notes.push(format!(
        "latencies: {} sampled calls of {} completed, {} writes sampled, {} beyond p99",
        all.len(),
        window.ok,
        writes.len(),
        all.len() - (0.99 * all.len() as f64).ceil() as usize
    ));
    report.notes.push(format!(
        "error_rate: {} of {} calls failed or refused",
        window.failed, report.attempted
    ));
    report.notes.push(format!("set-up CPU seconds of {} set-ups: {cpu:.4?}", setups.len()));
    Ok(report)
}

/// The traced run: an untraced and a traced deployment measured for half
/// the window each, every per-layer metric from the traced half, and the
/// throughput gap between the halves as the tracing overhead. Spans are
/// written to `spans_path`.
///
/// # Errors
///
/// A failed set-up or a failed output check.
pub fn run_traced(spec: Spec, seconds: f64, spans_path: &Path) -> Result<Report, RunError> {
    let spec = Arc::new(spec);
    let (plain, deployment, _) = set_up_and_measure(&spec, false, seconds / 2.0)?;
    deployment.shutdown();
    let (m, deployment, _) = set_up_and_measure(&spec, true, seconds / 2.0)?;
    let sink = Arc::clone(&deployment.tracing.as_ref().expect("a traced deployment").sink);
    // Every member applies every commit: count each ensemble's commits once,
    // at its first member (the leader).
    let mut first = 0;
    let mut commits = 0.0;
    for members in &deployment.ensembles {
        commits += m.after.members[first].get(COMMITS) - m.before.members[first].get(COMMITS);
        first += members.len();
    }
    let gateway = deployment.gateway.is_some();
    let threads_without_gateway = deployment.threads_without_gateway;
    deployment.shutdown();
    sink.write(spans_path).map_err(|err| RunError::Setup(format!("write spans: {err}")))?;

    let w = &m.window;
    let ops = w.ok as f64;
    let client_mean = w.mean_latency_us();
    let server_mean = m.server_mean_us();
    let hooks = m.after.hooks.since(&m.before.hooks);
    let peers = m.after.peers.since(&m.before.peers);
    let cache_hits = m.members("zk_path_cache_hits_total");
    let cache_misses = m.members("zk_path_cache_misses_total");
    let switches = m.after.process.ctx_switches.saturating_sub(m.before.process.ctx_switches);
    let overhead = (ratio(plain.window.throughput(), w.throughput()) - 1.0) * 100.0;
    let us = |ns: u64, calls: u64| ratio(ns as f64, calls as f64) / 1e3;
    let per_write = |value: f64| ratio(value, commits);

    let mut r = Report::new(w);
    r.metric("client.submit_us", us(m.client.submit_ns, m.client.calls), "us");
    r.metric("client.wait_us", us(m.client.wait_ns, m.client.calls), "us");
    r.metric("core.on_request_us", us(hooks.request_ns, hooks.requests), "us");
    r.metric("core.on_response_us", us(hooks.response_ns, hooks.responses), "us");
    r.metric(
        "core.us_per_op",
        ratio((hooks.request_ns + hooks.response_ns) as f64 / 1e3, ops),
        "us/op",
    );
    r.metric("core.path_cache_hit_ratio", ratio(cache_hits, cache_hits + cache_misses), "ratio");
    r.metric("core.errors", hooks.errors as f64, "count");
    r.metric("zkserver.request_us", server_mean, "us");
    r.metric("zkserver.outside_us", client_mean - server_mean, "us");
    for name in ["reply_flush", "open", "seal"] {
        r.metric(&format!("zkserver.stage.{name}_us"), m.members_mean_us(&stage(name)), "us");
    }
    r.metric("zab.msgs_per_write", per_write(peers.messages as f64), "msgs/write");
    r.metric("zab.bytes_per_write", per_write(peers.bytes as f64), "B/write");
    r.metric("zab.send_us", us(peers.call_ns, peers.calls), "us");
    r.metric("zab.forwards_per_write", per_write(m.members("zk_zab_forwards_total")), "fwd/write");
    r.metric("zab.elections", m.members(ELECTIONS), "count");
    r.metric(
        "persist.fsyncs_per_write",
        per_write(m.members("zk_wal_fsyncs_total")),
        "fsync/write",
    );
    r.metric(
        "persist.wal_bytes_per_user_byte",
        ratio(m.wal_bytes_appended(), w.user_bytes as f64),
        "B/B",
    );
    r.metric("persist.snapshots", m.members("zk_snapshots_taken_total"), "count");
    r.metric(
        "gateway.backend_links",
        m.after.gateway.first().map_or(0.0, |g| g.get("gw_backend_links")),
        "count",
    );
    // Threads with the gateway up, less those before it started and the
    // benchmark's own client threads.
    let gateway_threads =
        w.threads_in_window as f64 - threads_without_gateway as f64 - SESSIONS as f64;
    r.metric("gateway.threads", if gateway { gateway_threads } else { 0.0 }, "count");
    r.metric("process.cpu_us_per_op", m.cpu_us_per_op(), "us/op");
    r.metric("process.ctx_switches_per_op", ratio(switches as f64, ops), "switches/op");
    r.metric("process.threads", w.threads_in_window as f64, "count");
    r.metric("trace.overhead_pct", overhead, "%");

    // Times of layers not every workload exercises: printed, not in
    // `BENCHMARK.json`, since they read 0 on the workloads that skip the
    // layer.
    r.printed("zkserver.read_us", m.members_mean_us(READ_LATENCY), "us");
    r.printed("zkserver.write_us", m.members_mean_us(WRITE_LATENCY), "us");
    for name in ["queue_wait", "apply"] {
        r.printed(&format!("zkserver.stage.{name}_us"), m.members_mean_us(&stage(name)), "us");
    }
    r.printed("zab.stage.propose_us", m.members_mean_us(&stage("propose")), "us");
    r.printed("zab.stage.quorum_ack_us", m.members_mean_us(&stage("quorum_ack")), "us");
    r.printed("persist.fsync_us", m.members_mean_us(&stage("wal_fsync")), "us");
    r.printed("gateway.hop_us", if gateway { client_mean - server_mean } else { 0.0 }, "us");
    r.printed(
        "gateway.route_us",
        histogram_mean_us(&m.before.gateway, &m.after.gateway, GATEWAY_ROUTE),
        "us",
    );

    let (kept, dropped) = sink.counts();
    r.notes.push(format!(
        "traced window: {ops} calls, {commits} committed txns, client mean {client_mean:.1} us, \
         server mean {server_mean:.1} us"
    ));
    r.notes.push(format!(
        "tracing overhead: untraced {:.1} ops/s, traced {:.1} ops/s",
        plain.window.throughput(),
        w.throughput()
    ));
    r.notes.push(format!(
        "spans: {kept} kept, {dropped} dropped at the cap, written to {}",
        spans_path.display()
    ));
    Ok(r)
}
