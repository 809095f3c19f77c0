//! One closed-loop client session: it draws its next call from the seeded
//! mix, sends it, waits for the reply, and checks the reply against what
//! it knows the namespace holds.

use std::net::SocketAddr;
use std::sync::Arc;

use jute::multi::{MultiRequest, Op, OpResult};
use jute::records::{GetChildrenRequest, GetDataRequest, SetDataRequest};
use jute::{Request, Response};
use zkserver::net::SessionCredentials;
use zkserver::{typed, ZkError, ZkTcpClient};

use crate::deploy::SESSION_TIMEOUT_MS;
use crate::gen::{self, Rng, Zipf};
use crate::seams::{now_ns, CallKey, Span, SpanSink};
use crate::spec::{Call, Spec, Workload, MULTI_WRITES};

/// Zipf(0.99) choosers of `read-secure`, shared by its sessions.
#[derive(Debug)]
pub struct Choosers {
    leaves: Zipf,
    groups: Zipf,
}

impl Choosers {
    /// The choosers of `spec` (empty for the uniform workloads).
    pub fn new(spec: &Spec) -> Option<Arc<Choosers>> {
        (spec.workload == Workload::ReadSecure).then(|| {
            Arc::new(Choosers {
                leaves: Zipf::new(spec.keys, 0.99, spec.seed, 1),
                groups: Zipf::new(spec.groups, 0.99, spec.seed, 2),
            })
        })
    }
}

/// A wrong answer: the benchmark stops and fails the run.
#[derive(Debug)]
pub struct Violation(pub String);

/// What one call did.
#[derive(Debug, Clone, Copy)]
pub struct CallOutcome {
    /// Whether it was a write (`set_data` or `multi`).
    pub write: bool,
    /// Submit to reply, in nanoseconds.
    pub latency_ns: u64,
    /// Whether the service failed or refused it.
    pub failed: bool,
    /// Whether the session is gone (connection or session lost).
    pub fatal: bool,
    /// Payload bytes the call wrote.
    pub user_bytes: u64,
}

/// Time the client library spent in `submit` and in `wait`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTotals {
    /// Calls timed.
    pub calls: u64,
    /// Nanoseconds in `ZkTcpClient::submit`.
    pub submit_ns: u64,
    /// Nanoseconds in `ZkTcpClient::wait`.
    pub wait_ns: u64,
}

/// One client session and its model of the keys it can see.
pub struct Session {
    index: usize,
    spec: Arc<Spec>,
    client: ZkTcpClient,
    member: u32,
    rng: Rng,
    choosers: Option<Arc<Choosers>>,
    own: Vec<usize>,
    /// Per key: the exact current version for owned keys, the highest
    /// version seen for the others.
    versions: Vec<u32>,
    /// Calls submitted since the session began: the FIFO position that
    /// joins server-side hook spans to the call.
    position: u64,
    sink: Option<Arc<SpanSink>>,
    /// Time spent in the client library while the sink records.
    pub totals: ClientTotals,
}

fn is_availability_failure(err: &ZkError) -> bool {
    matches!(
        err,
        ZkError::Throttled
            | ZkError::NoQuorum
            | ZkError::ConnectionLoss { .. }
            | ZkError::SessionExpired { .. }
    )
}

impl Session {
    /// Connects session `index` to `addr` (member `member`).
    ///
    /// # Errors
    ///
    /// Describes a failed connection.
    pub fn connect(
        index: usize,
        spec: Arc<Spec>,
        choosers: Option<Arc<Choosers>>,
        target: (SocketAddr, u32),
        credentials: Arc<dyn SessionCredentials>,
        sink: Option<Arc<SpanSink>>,
    ) -> Result<Session, String> {
        let client = ZkTcpClient::connect_with(target.0, credentials, SESSION_TIMEOUT_MS)
            .map_err(|err| format!("connect session {index}: {err}"))?;
        let own = (0..spec.keys).filter(|&k| spec.owner(k) == Some(index)).collect();
        Ok(Session {
            index,
            rng: Rng::new(spec.seed, 100 + index as u64),
            versions: vec![0; spec.keys],
            spec,
            client,
            member: target.1,
            choosers,
            own,
            position: 0,
            sink,
            totals: ClientTotals::default(),
        })
    }

    /// The versions this session knows (exact for the keys it owns).
    pub fn versions(&self) -> &[u32] {
        &self.versions
    }

    /// The keys this session writes.
    pub fn own_keys(&self) -> &[usize] {
        &self.own
    }

    /// Draws the next call of the workload's mix.
    pub fn next_call(&mut self) -> Call {
        let roll = self.rng.below(100);
        match self.spec.workload {
            Workload::ReadSecure => {
                let choosers = self.choosers.as_ref().expect("read-secure has choosers");
                if roll < 90 {
                    Call::Get(choosers.leaves.sample(&mut self.rng))
                } else {
                    Call::Children(choosers.groups.sample(&mut self.rng))
                }
            }
            Workload::WriteSecure => {
                if roll < 85 {
                    Call::Set(self.own[self.rng.below(self.own.len())])
                } else {
                    let mut keys: Vec<usize> = Vec::with_capacity(MULTI_WRITES);
                    while keys.len() < MULTI_WRITES {
                        let key = self.own[self.rng.below(self.own.len())];
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                    Call::Multi(keys)
                }
            }
            Workload::MixedGateway => {
                if roll < 70 {
                    Call::Get(self.rng.below(self.spec.keys))
                } else {
                    Call::Set(self.own[self.rng.below(self.own.len())])
                }
            }
        }
    }

    /// Sends `request`, waits for its reply and times both halves.
    fn call(&mut self, request: &Request) -> (Result<Response, ZkError>, u64) {
        let position = self.position;
        self.position += 1;
        let start = now_ns();
        let ticket = match self.client.submit(request) {
            Ok(ticket) => ticket,
            Err(err) => return (Err(err), now_ns() - start),
        };
        let submitted = now_ns();
        let response = self.client.wait(ticket);
        let end = now_ns();
        if let Some(sink) = self.sink.as_ref().filter(|sink| sink.recording()) {
            self.totals.calls += 1;
            self.totals.submit_ns += submitted - start;
            self.totals.wait_ns += end - submitted;
            let call = Some(CallKey {
                member: self.member,
                session: self.client.session_id(),
                seq: position,
            });
            sink.push(Span { name: "client.call", start_ns: start, end_ns: end, call });
            sink.push(Span { name: "client.submit", start_ns: start, end_ns: submitted, call });
            sink.push(Span { name: "client.wait", start_ns: submitted, end_ns: end, call });
        }
        (response, end - start)
    }

    /// Checks a read of `key` and advances the session's view of it.
    fn check_read(&mut self, key: usize, data: &[u8], version: i32) -> Result<(), Violation> {
        let version = u32::try_from(version)
            .map_err(|_| Violation(format!("key {key}: negative version {version}")))?;
        let known = self.versions[key];
        let owned = self.spec.owner(key) == Some(self.index);
        if (owned && version != known) || version < known {
            return Err(Violation(format!(
                "session {}: key {key} read at version {version}, expected {}{known}",
                self.index,
                if owned { "" } else { "at least " }
            )));
        }
        self.versions[key] = version;
        gen::verify_payload(self.spec.seed, key as u32, version, self.spec.payload, data)
            .map_err(Violation)
    }

    /// Issues `call` and checks its reply.
    ///
    /// # Errors
    ///
    /// A wrong answer: a payload that is not the seeded content of its key
    /// and version, a stale or skipped version, a wrong listing, or a
    /// `multi` sub-result that is not OK. Refused or failed calls are
    /// reported in the outcome instead.
    pub fn execute(&mut self, call: &Call) -> Result<CallOutcome, Violation> {
        let spec = Arc::clone(&self.spec);
        let write = matches!(call, Call::Set(_) | Call::Multi(_));
        let writes: Vec<(usize, u32)> = match call {
            Call::Set(key) => vec![(*key, self.versions[*key])],
            Call::Multi(keys) => keys.iter().map(|&k| (k, self.versions[k])).collect(),
            _ => Vec::new(),
        };
        let set = |&(key, version): &(usize, u32)| SetDataRequest {
            path: spec.key_path(key),
            data: gen::payload(spec.seed, key as u32, version + 1, spec.payload),
            version: version as i32,
        };
        let request = match call {
            Call::Get(key) => {
                Request::GetData(GetDataRequest { path: spec.key_path(*key), watch: false })
            }
            Call::Children(group) => Request::GetChildren(GetChildrenRequest {
                path: spec.group_path(*group),
                watch: false,
            }),
            Call::Set(_) => Request::SetData(set(&writes[0])),
            Call::Multi(_) => Request::Multi(MultiRequest::new(
                writes.iter().map(|w| Op::SetData(set(w))).collect(),
            )),
        };
        let (response, latency_ns) = self.call(&request);
        let mut outcome = CallOutcome {
            write,
            latency_ns,
            failed: false,
            fatal: false,
            user_bytes: (writes.len() * spec.payload) as u64,
        };
        let path = request.path().unwrap_or("/").to_string();
        let checked = response.and_then(|response| match call {
            Call::Get(key) => {
                let (data, stat) = typed::expect_get_data(response, &path)?;
                Ok(self.check_read(*key, &data, stat.version))
            }
            Call::Children(group) => {
                let mut children = typed::expect_get_children(response, &path)?;
                children.sort();
                Ok(if children == Spec::group_children() {
                    Ok(())
                } else {
                    Err(Violation(format!("group {group} listed as {children:?}")))
                })
            }
            Call::Set(_) => {
                let stat = typed::expect_set_data(response, &path)?;
                Ok(self.check_writes(&writes, &[stat.version]))
            }
            Call::Multi(_) => {
                let results = typed::expect_multi(response, writes.len())?;
                let mut versions = Vec::with_capacity(results.len());
                for result in results {
                    match result {
                        OpResult::SetData { stat } => versions.push(stat.version),
                        other => return Ok(Err(Violation(format!("multi sub-result {other:?}")))),
                    }
                }
                Ok(self.check_writes(&writes, &versions))
            }
        });
        match checked {
            Ok(verdict) => verdict.map(|()| outcome),
            Err(err) if is_availability_failure(&err) => {
                outcome.failed = true;
                outcome.fatal =
                    matches!(err, ZkError::ConnectionLoss { .. } | ZkError::SessionExpired { .. });
                Ok(outcome)
            }
            Err(err) => Err(Violation(format!("session {}: {path}: {err}", self.index))),
        }
    }

    /// Checks that every conditional write moved its key by exactly one
    /// version, and records the new versions.
    fn check_writes(&mut self, writes: &[(usize, u32)], got: &[i32]) -> Result<(), Violation> {
        for (&(key, before), &after) in writes.iter().zip(got) {
            if after != before as i32 + 1 {
                return Err(Violation(format!(
                    "session {}: key {key} written at version {before} came back as {after}",
                    self.index
                )));
            }
            self.versions[key] = before + 1;
        }
        Ok(())
    }

    /// Reads back every key this session wrote: each must hold exactly the
    /// last version the session wrote (read-your-writes).
    ///
    /// # Errors
    ///
    /// Describes a failed read or a stale value.
    pub fn check_own_writes(&mut self) -> Result<(), Violation> {
        for key in self.own.clone() {
            let path = self.spec.key_path(key);
            let (data, stat) = self
                .client
                .get_data(&path, false)
                .map_err(|err| Violation(format!("read back {path}: {err}")))?;
            self.check_read(key, &data, stat.version)?;
        }
        Ok(())
    }

    /// Closes the session.
    pub fn close(self) {
        self.client.close();
    }
}
