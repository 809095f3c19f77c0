//! The TLS-ZK baseline: transport encryption terminated in untrusted replica
//! code.
//!
//! The paper compares SecureKeeper against ZooKeeper with TLS between
//! clients and replicas. [`TlsInterceptor`] is that baseline on the real TCP
//! server: it accepts the same 16-byte session-key handshake as
//! SecureKeeper's entry-enclave interceptor, so clients connect with
//! [`securekeeper::SecureSessionCredentials`] and seal every frame the same
//! way, but the replica opens the frames itself and stores plaintext paths
//! and payloads. It pays for transport crypto and nothing else: no storage
//! encryption and no enclave transitions.

use std::collections::HashMap;
use std::sync::Arc;

use jute::records::OpCode;
use parking_lot::Mutex;
use securekeeper::transport::TransportChannel;
use zkcrypto::keys::{Key128, SessionKey};
use zkserver::pipeline::RequestInterceptor;
use zkserver::ZkError;

/// A transport-encrypting interceptor terminated in *untrusted* replica code —
/// the moral equivalent of ZooKeeper's TLS support, used as the TLS-ZK
/// baseline.
#[derive(Default)]
pub struct TlsInterceptor {
    channels: Mutex<HashMap<i64, Arc<TransportChannel>>>,
}

impl std::fmt::Debug for TlsInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsInterceptor").field("sessions", &self.channels.lock().len()).finish()
    }
}

impl TlsInterceptor {
    /// Creates an interceptor with no registered sessions.
    pub fn new() -> Self {
        Self::default()
    }

    fn channel(&self, session_id: i64) -> Result<Arc<TransportChannel>, ZkError> {
        self.channels.lock().get(&session_id).cloned().ok_or(ZkError::Marshalling {
            reason: format!("no TLS channel for session {session_id}"),
        })
    }
}

impl RequestInterceptor for TlsInterceptor {
    fn on_session_established(&self, session_id: i64, handshake: &[u8]) -> Result<(), ZkError> {
        // The same handshake SecureKeeper's entry-enclave manager parses: the
        // blob is the 16-byte session key the client seals its frames with.
        let key: [u8; 16] = handshake.try_into().map_err(|_| ZkError::Marshalling {
            reason: format!("TLS handshake blob must be 16 bytes, got {}", handshake.len()),
        })?;
        let channel = TransportChannel::enclave_side(&SessionKey(Key128::from_bytes(key)));
        self.channels.lock().insert(session_id, Arc::new(channel));
        Ok(())
    }

    fn on_request(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        let channel = self.channel(session_id)?;
        channel
            .open_in_place(buffer)
            .map_err(|err| ZkError::Marshalling { reason: err.to_string() })
    }

    fn on_response(
        &self,
        session_id: i64,
        _op: OpCode,
        buffer: &mut Vec<u8>,
    ) -> Result<(), ZkError> {
        self.channel(session_id)?.seal_in_place(buffer);
        Ok(())
    }

    fn on_event(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        self.channel(session_id)?.seal_in_place(buffer);
        Ok(())
    }

    fn on_session_closed(&self, session_id: i64) {
        self.channels.lock().remove(&session_id);
    }

    fn name(&self) -> &'static str {
        "tls-emulation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;
    use crate::netdriver::{run_workload, LiveServer};
    use crate::variant::{RequestMode, Variant};
    use jute::records::{
        CreateMode, CreateRequest, GetChildrenRequest, GetDataRequest, SetDataRequest,
    };
    use jute::{Request, Response};

    #[test]
    fn tls_emulated_cluster_round_trips_requests() {
        let server = LiveServer::start(Variant::TlsZk);
        let mut client = server.connect().unwrap();
        client.create("/tls-test", b"v".to_vec(), CreateMode::Persistent).unwrap();
        assert_eq!(client.get_data("/tls-test", false).unwrap().0, b"v");
        // Unlike SecureKeeper, the store sees the plaintext path (TLS protects
        // only the wire).
        assert!(server.replica().tree().contains("/tls-test"));
        client.close();
        server.shutdown();
    }

    #[test]
    fn tls_handshake_rejects_an_empty_or_wrong_length_blob() {
        let interceptor = TlsInterceptor::new();
        for blob in [&[][..], &[7u8; 15][..], &[7u8; 17][..]] {
            let err = interceptor.on_session_established(1, blob).unwrap_err();
            assert!(matches!(err, ZkError::Marshalling { .. }), "{err:?}");
        }
        assert!(interceptor.channel(1).is_err(), "a rejected handshake installs no channel");
        interceptor.on_session_established(1, &[7u8; 16]).unwrap();
        assert!(interceptor.channel(1).is_ok());
    }

    #[test]
    fn measured_runs_complete_and_report_positive_throughput() {
        for variant in Variant::all() {
            let server = LiveServer::start(variant);
            let spec = WorkloadSpec::paper_mix(64, 2);
            for mode in RequestMode::all() {
                let report = run_workload(&server, &spec, 60, mode).unwrap();
                assert_eq!(report.total_ops, 120, "{variant} {mode}");
                assert!(report.throughput_rps > 0.0, "{variant} {mode}");
            }
            server.shutdown();
        }
    }

    /// Puts a window of mixed SET/GET/CREATE/LS tickets in flight on one
    /// connection before redeeming any, then checks every decoded reply —
    /// so the server-side interceptor must pair each response with its
    /// request (the entry enclave does it with its FIFO pending queue).
    fn pipelines_mixed_tickets(variant: Variant) {
        const ROUNDS: usize = 16;
        let server = LiveServer::start(variant);
        let mut client = server.connect().unwrap();
        client.create("/p", Vec::new(), CreateMode::Persistent).unwrap();
        client.create("/p/node", vec![0; 64], CreateMode::Persistent).unwrap();

        let mut tickets = Vec::new();
        for round in 0..ROUNDS {
            let fill = round as u8 + 1;
            for request in [
                Request::SetData(SetDataRequest {
                    path: "/p/node".into(),
                    data: vec![fill; 64 + round],
                    version: -1,
                }),
                Request::GetData(GetDataRequest { path: "/p/node".into(), watch: false }),
                Request::Create(CreateRequest {
                    path: format!("/p/c-{round:03}"),
                    data: vec![fill; round],
                    mode: CreateMode::Persistent,
                }),
                Request::GetChildren(GetChildrenRequest { path: "/p".into(), watch: false }),
            ] {
                tickets.push(client.submit(&request).unwrap());
            }
        }
        // Redeem newest first: the first wait drains every earlier reply.
        let mut replies: Vec<Response> =
            tickets.iter().rev().map(|&ticket| client.wait(ticket).unwrap()).collect();
        replies.reverse();
        for (round, replies) in replies.chunks(4).enumerate() {
            let fill = round as u8 + 1;
            match &replies[0] {
                Response::SetData(set) => assert_eq!(set.stat.version, round as i32 + 1),
                other => panic!("{variant} round {round}: SET got {other:?}"),
            }
            match &replies[1] {
                Response::GetData(get) => assert_eq!(get.data, vec![fill; 64 + round]),
                other => panic!("{variant} round {round}: GET got {other:?}"),
            }
            match &replies[2] {
                Response::Create(create) => assert_eq!(create.path, format!("/p/c-{round:03}")),
                other => panic!("{variant} round {round}: CREATE got {other:?}"),
            }
            match &replies[3] {
                Response::GetChildren(ls) => {
                    let mut children = ls.children.clone();
                    children.sort();
                    let mut expected: Vec<String> =
                        (0..=round).map(|r| format!("c-{r:03}")).collect();
                    expected.push("node".into());
                    assert_eq!(children, expected, "{variant} round {round}");
                }
                other => panic!("{variant} round {round}: LS got {other:?}"),
            }
        }
        client.close();
        server.shutdown();
    }

    #[test]
    fn secure_connection_pipelines_mixed_tickets_through_the_enclave_fifo() {
        pipelines_mixed_tickets(Variant::SecureKeeper);
    }

    #[test]
    fn tls_connection_pipelines_mixed_tickets() {
        pipelines_mixed_tickets(Variant::TlsZk);
    }
}
