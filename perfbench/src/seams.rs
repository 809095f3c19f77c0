//! Measurement from outside the program: decorators around the public seams
//! it already exposes, registry deltas and `/proc/self` counters.
//!
//! Nothing here is compiled into the program under test. The traced run
//! splices [`TimedInterceptor`] in with `ZkReplica::with_interceptor` and
//! [`CountingTransport`] in with `ZkEnsembleServer::start_custom`; untraced
//! runs use neither.

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use jute::OpCode;
use opsplane::MetricsRegistry;
use zab::wire::encode_envelope;
use zab::{Envelope, NodeId, ZabMessage, ZabTransport};
use zkserver::pipeline::{InterceptorStats, RequestInterceptor};
use zkserver::{PeerTransport, ZkError};

/// Nanoseconds since the first call in this process: the time base of
/// every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans kept in memory per traced run; later ones are counted, not kept.
const SPAN_CAP: usize = 1 << 20;

/// Which client call a span belongs to: the member that served the session,
/// the session id and the call's position in the session. Sessions are
/// FIFO, so the n-th hook call of a session serves its n-th client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallKey {
    /// Member (replica id) the session is connected to; 0 when the span
    /// belongs to no session.
    pub member: u32,
    /// Server-side session id.
    pub session: i64,
    /// Zero-based call number within the session.
    pub seq: u64,
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, e.g. `core.on_request`.
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// The client call the span belongs to, when it belongs to one.
    pub call: Option<CallKey>,
}

/// The in-memory span store of one traced run.
#[derive(Debug, Default)]
pub struct SpanSink {
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl SpanSink {
    /// Starts or stops recording (only the measured window is recorded).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether the measured window is open.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Keeps `span` if recording and under the cap.
    pub fn push(&self, span: Span) {
        if !self.recording() {
            return;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans kept and spans dropped at the cap.
    pub fn counts(&self) -> (usize, u64) {
        (
            self.spans.lock().expect("span store poisoned").len(),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Writes every span as `id parent name start_ns end_ns`, tab-separated.
    /// A span's parent is the `client.call` span of the call it belongs to
    /// (0 for the call spans themselves and for spans of no call).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut call_ids: HashMap<CallKey, usize> = HashMap::new();
        for (index, span) in spans.iter().enumerate() {
            if span.name == "client.call" {
                if let Some(key) = span.call {
                    call_ids.insert(key, index + 1);
                }
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in spans.iter().enumerate() {
            let parent = match span.call {
                Some(key) if span.name != "client.call" => call_ids.get(&key).copied().unwrap_or(0),
                _ => 0,
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                index + 1,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sums of the hook calls a [`TimedInterceptor`] has seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    /// `on_request` calls and the nanoseconds spent in them.
    pub requests: u64,
    /// See `requests`.
    pub request_ns: u64,
    /// `on_response` calls and the nanoseconds spent in them.
    pub responses: u64,
    /// See `responses`.
    pub response_ns: u64,
    /// Hook calls that returned an error.
    pub errors: u64,
}

impl HookTotals {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &HookTotals) -> HookTotals {
        HookTotals {
            requests: self.requests - earlier.requests,
            request_ns: self.request_ns - earlier.request_ns,
            responses: self.responses - earlier.responses,
            response_ns: self.response_ns - earlier.response_ns,
            errors: self.errors - earlier.errors,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &HookTotals) -> HookTotals {
        HookTotals {
            requests: self.requests + other.requests,
            request_ns: self.request_ns + other.request_ns,
            responses: self.responses + other.responses,
            response_ns: self.response_ns + other.response_ns,
            errors: self.errors + other.errors,
        }
    }
}

#[derive(Default)]
struct HookCounters {
    requests: AtomicU64,
    request_ns: AtomicU64,
    responses: AtomicU64,
    response_ns: AtomicU64,
    errors: AtomicU64,
}

/// Times every entry-enclave hook of one member and records a span for it.
pub struct TimedInterceptor {
    inner: Arc<dyn RequestInterceptor>,
    member: u32,
    sink: Arc<SpanSink>,
    /// Per session: hook calls seen so far (requests, responses).
    positions: Mutex<HashMap<i64, (u64, u64)>>,
    counters: HookCounters,
}

impl TimedInterceptor {
    /// Wraps `inner`, the interceptor of member `member`.
    pub fn new(inner: Arc<dyn RequestInterceptor>, member: u32, sink: Arc<SpanSink>) -> Self {
        TimedInterceptor {
            inner,
            member,
            sink,
            positions: Mutex::new(HashMap::new()),
            counters: HookCounters::default(),
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> HookTotals {
        let c = &self.counters;
        HookTotals {
            requests: c.requests.load(Ordering::Relaxed),
            request_ns: c.request_ns.load(Ordering::Relaxed),
            responses: c.responses.load(Ordering::Relaxed),
            response_ns: c.response_ns.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    fn next_position(&self, session: i64, response: bool) -> u64 {
        let mut positions = self.positions.lock().expect("hook positions poisoned");
        let entry = positions.entry(session).or_default();
        let slot = if response { &mut entry.1 } else { &mut entry.0 };
        *slot += 1;
        *slot - 1
    }

    fn timed(
        &self,
        name: &'static str,
        session: i64,
        response: bool,
        hook: impl FnOnce() -> Result<(), ZkError>,
    ) -> Result<(), ZkError> {
        let start = now_ns();
        let result = hook();
        let end = now_ns();
        let c = &self.counters;
        let (calls, nanos) =
            if response { (&c.responses, &c.response_ns) } else { (&c.requests, &c.request_ns) };
        calls.fetch_add(1, Ordering::Relaxed);
        nanos.fetch_add(end - start, Ordering::Relaxed);
        if result.is_err() {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let seq = self.next_position(session, response);
        let call = Some(CallKey { member: self.member, session, seq });
        self.sink.push(Span { name, start_ns: start, end_ns: end, call });
        result
    }
}

impl RequestInterceptor for TimedInterceptor {
    fn on_request(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        self.timed("core.on_request", session_id, false, || {
            self.inner.on_request(session_id, buffer)
        })
    }

    fn on_response(
        &self,
        session_id: i64,
        op: OpCode,
        buffer: &mut Vec<u8>,
    ) -> Result<(), ZkError> {
        self.timed("core.on_response", session_id, true, || {
            self.inner.on_response(session_id, op, buffer)
        })
    }

    fn on_session_established(&self, session_id: i64, handshake: &[u8]) -> Result<(), ZkError> {
        self.inner.on_session_established(session_id, handshake)
    }

    fn on_event(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        self.inner.on_event(session_id, buffer)
    }

    fn on_session_closed(&self, session_id: i64) {
        self.positions.lock().expect("hook positions poisoned").remove(&session_id);
        self.inner.on_session_closed(session_id);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> InterceptorStats {
        self.inner.stats()
    }
}

/// Sums of the peer traffic a [`CountingTransport`] has sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeerTotals {
    /// Messages sent (a broadcast counts once per recipient).
    pub messages: u64,
    /// Encoded envelope bytes sent.
    pub bytes: u64,
    /// `send`/`broadcast` calls and the nanoseconds spent inside them.
    pub calls: u64,
    /// See `calls`.
    pub call_ns: u64,
}

impl PeerTotals {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &PeerTotals) -> PeerTotals {
        PeerTotals {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
            call_ns: self.call_ns - earlier.call_ns,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &PeerTotals) -> PeerTotals {
        PeerTotals {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            calls: self.calls + other.calls,
            call_ns: self.call_ns + other.call_ns,
        }
    }
}

/// Counts and times the ZAB traffic one member sends to its peers.
pub struct CountingTransport {
    inner: Arc<dyn PeerTransport>,
    sink: Arc<SpanSink>,
    messages: AtomicU64,
    bytes: AtomicU64,
    calls: AtomicU64,
    call_ns: AtomicU64,
}

impl CountingTransport {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn PeerTransport>, sink: Arc<SpanSink>) -> Self {
        CountingTransport {
            inner,
            sink,
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            call_ns: AtomicU64::new(0),
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> PeerTotals {
        PeerTotals {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            call_ns: self.call_ns.load(Ordering::Relaxed),
        }
    }

    fn account(&self, name: &'static str, messages: u64, bytes: u64, start: u64, end: u64) {
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.call_ns.fetch_add(end - start, Ordering::Relaxed);
        self.sink.push(Span { name, start_ns: start, end_ns: end, call: None });
    }
}

impl ZabTransport for CountingTransport {
    fn send(&self, from: NodeId, to: NodeId, message: ZabMessage) {
        let envelope = Envelope { from, message };
        let bytes = encode_envelope(&envelope).len() as u64;
        let start = now_ns();
        self.inner.send(from, to, envelope.message);
        self.account("zab.send", 1, bytes, start, now_ns());
    }

    fn broadcast(&self, from: NodeId, message: &ZabMessage) {
        let peers = self.inner.peer_ids().len() as u64;
        let bytes = encode_envelope(&Envelope { from, message: message.clone() }).len() as u64;
        let start = now_ns();
        self.inner.broadcast(from, message);
        self.account("zab.broadcast", peers, bytes * peers, start, now_ns());
    }

    fn receive(&self, node: NodeId) -> Option<Envelope> {
        self.inner.receive(node)
    }
}

impl PeerTransport for CountingTransport {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn peer_ids(&self) -> Vec<NodeId> {
        self.inner.peer_ids()
    }

    fn set_peers(&self, peers: HashMap<NodeId, SocketAddr>) {
        self.inner.set_peers(peers);
    }

    fn receive_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inner.receive_timeout(timeout)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// One `flatten()` of a metric registry, keyed by series name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot(HashMap<String, f64>);

impl RegistrySnapshot {
    /// Reads every series of `registry`.
    pub fn take(registry: &MetricsRegistry) -> RegistrySnapshot {
        RegistrySnapshot(registry.flatten().into_iter().collect())
    }

    /// The value of `series` (0 when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// Sum over members of `after[series] - before[series]`.
pub fn delta(before: &[RegistrySnapshot], after: &[RegistrySnapshot], series: &str) -> f64 {
    before.iter().zip(after).map(|(b, a)| a.get(series) - b.get(series)).sum()
}

/// Mean of a histogram over the window, in microseconds: summed
/// `<series>_sum` delta over summed `<series>_count` delta (0 when the
/// histogram saw nothing).
pub fn histogram_mean_us(
    before: &[RegistrySnapshot],
    after: &[RegistrySnapshot],
    series: &str,
) -> f64 {
    let count = delta(before, after, &format!("{series}_count"));
    let sum = delta(before, after, &format!("{series}_sum"));
    if count > 0.0 {
        sum / count * 1e6
    } else {
        0.0
    }
}

/// Process-wide counters from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU time of all threads, in microseconds.
    pub cpu_us: f64,
    /// Voluntary plus involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub peak_rss_mib: f64,
}

/// Clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on every
/// Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

impl ProcSample {
    /// Reads the current values (zeros where `/proc` is unavailable).
    pub fn take() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line: indices 11 and 12 after the name.
        let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after_name.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        let cpu_us = (ticks(11) + ticks(12)) / USER_HZ * 1e6;
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                    ctx_switches += status_field(&status, "voluntary_ctxt_switches")
                        + status_field(&status, "nonvoluntary_ctxt_switches");
                }
            }
        }
        ProcSample { cpu_us, ctx_switches, peak_rss_mib: peak_rss_mib() }
    }
}

/// CPU time of each live thread of this process, in nanoseconds, keyed by
/// thread id (`/proc/self/task/<tid>/schedstat`).
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu(HashMap<u64, u64>);

impl ThreadCpu {
    /// Reads every live thread.
    pub fn take() -> ThreadCpu {
        let mut threads = HashMap::new();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
                let stat = std::fs::read_to_string(task.path().join("schedstat")).ok();
                let ns = stat.and_then(|s| s.split_whitespace().next()?.parse().ok());
                if let (Some(tid), Some(ns)) = (tid, ns) {
                    threads.insert(tid, ns);
                }
            }
        }
        ThreadCpu(threads)
    }

    /// Seconds of CPU the threads alive now spent since `earlier` (threads
    /// that exited in between are not counted).
    pub fn seconds_since(&self, earlier: &ThreadCpu) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(earlier.0.get(tid).copied().unwrap_or(0)))
            .sum();
        ns as f64 / 1e9
    }
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count() as u64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}
