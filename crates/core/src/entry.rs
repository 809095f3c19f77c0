//! The entry enclave (paper Sections 4.1–4.3, 5.1).
//!
//! One entry enclave is instantiated per connected client on the replica the
//! client talks to. It is the only component that ever sees both the client's
//! plaintext and the storage key:
//!
//! 1. it terminates the transport encryption of the client connection;
//! 2. it deserializes the request *inside* the enclave;
//! 3. it encrypts the sensitive fields (path components, payload) towards the
//!    ZooKeeper data store and re-serializes the message, which the untrusted
//!    server then processes as if it were plaintext;
//! 4. responses take the same path in reverse, with the payload-to-path
//!    binding verified before anything is released to the client.
//!
//! Because ZooKeeper responses do not carry the operation type, the enclave
//! keeps a FIFO queue of pending requests per session — correct because
//! ZooKeeper guarantees FIFO order per client connection.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use jute::records::{
    CreateResponse, GetChildrenResponse, GetDataResponse, OpCode, ReplyHeader, RequestHeader,
};
use jute::{Request, Response};
use sgx_sim::{CostModel, Enclave, EnclaveBuilder, Epc};
use zkcrypto::keys::{SessionKey, StorageKey};

use crate::error::SkError;
use crate::path_cache::PathCipherCache;
use crate::path_crypto::PathCipher;
use crate::payload_crypto::{PayloadCipher, SequentialFlag};
use crate::transport::TransportChannel;

/// Stand-in for the compiled entry-enclave image; only its size matters for
/// EPC accounting (the paper reports a 436 KB shared object).
const ENTRY_ENCLAVE_IMAGE: &[u8] = b"securekeeper entry enclave image v1";

/// Heap reserved per entry enclave. Together with the image, stack and thread
/// control structures this lands near the paper's ~580 KB per-enclave figure.
const ENTRY_ENCLAVE_HEAP: usize = 480 * 1024;

/// A request the enclave has forwarded to ZooKeeper and whose response is
/// still outstanding.
#[derive(Debug, Clone)]
struct PendingRequest {
    xid: i32,
    op: OpCode,
    /// Plaintext path of the request, needed to verify the payload binding
    /// and to decrypt sequential CREATE responses.
    plaintext_path: Option<String>,
    /// `(ciphertext, plaintext)` of each create the request carries,
    /// standalone or inside a `multi`, in request order. A create result
    /// naming exactly that canonical ciphertext is answered from here
    /// instead of decrypting the path this enclave has just encrypted.
    created: Vec<(String, String)>,
}

/// The per-client entry enclave.
pub struct EntryEnclave {
    enclave: Enclave,
    transport: TransportChannel,
    path_cipher: PathCipher,
    payload_cipher: PayloadCipher,
    pending: Mutex<VecDeque<PendingRequest>>,
    requests_processed: Mutex<u64>,
}

impl std::fmt::Debug for EntryEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryEnclave")
            .field("enclave", &self.enclave.id())
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

impl EntryEnclave {
    /// Creates an entry enclave for one client session.
    ///
    /// # Errors
    ///
    /// Returns [`SkError::Enclave`] when the EPC cannot hold the enclave.
    pub fn new(
        epc: &Epc,
        storage_key: &StorageKey,
        session_key: &SessionKey,
        cost_model: CostModel,
    ) -> Result<Self, SkError> {
        Self::build(epc, storage_key, session_key, cost_model, None)
    }

    /// Creates an entry enclave that shares `path_cache` with its siblings.
    ///
    /// All entry enclaves of one replica hold the same storage key, so the
    /// deterministic path encryptions they produce are interchangeable — a
    /// path warmed by any session is warm for every session on the replica.
    ///
    /// # Errors
    ///
    /// Returns [`SkError::Enclave`] when the EPC cannot hold the enclave.
    pub fn with_path_cache(
        epc: &Epc,
        storage_key: &StorageKey,
        session_key: &SessionKey,
        cost_model: CostModel,
        path_cache: Arc<PathCipherCache>,
    ) -> Result<Self, SkError> {
        Self::build(epc, storage_key, session_key, cost_model, Some(path_cache))
    }

    fn build(
        epc: &Epc,
        storage_key: &StorageKey,
        session_key: &SessionKey,
        cost_model: CostModel,
        path_cache: Option<Arc<PathCipherCache>>,
    ) -> Result<Self, SkError> {
        let enclave = EnclaveBuilder::new(ENTRY_ENCLAVE_IMAGE.to_vec())
            .heap_bytes(ENTRY_ENCLAVE_HEAP)
            .stack_bytes(64 * 1024)
            .threads(1)
            .cost_model(cost_model)
            .build(epc)?;
        let path_cipher = match path_cache {
            Some(cache) => PathCipher::with_cache(storage_key, cache),
            None => PathCipher::new(storage_key),
        };
        Ok(EntryEnclave {
            enclave,
            transport: TransportChannel::enclave_side(session_key),
            path_cipher,
            payload_cipher: PayloadCipher::new(storage_key),
            pending: Mutex::new(VecDeque::new()),
            requests_processed: Mutex::new(0),
        })
    }

    /// The underlying simulated enclave (for cost and EPC statistics).
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Number of requests processed so far.
    pub fn requests_processed(&self) -> u64 {
        *self.requests_processed.lock()
    }

    /// Number of requests whose responses are still outstanding.
    pub fn pending_requests(&self) -> usize {
        self.pending.lock().len()
    }

    /// `ec_request`: processes a transport-encrypted client request in
    /// `buffer`, leaving the storage-encrypted ZooKeeper request in its place.
    ///
    /// # Errors
    ///
    /// Returns [`SkError`] when transport decryption, deserialization or field
    /// encryption fails; the untrusted caller only learns that the message was
    /// rejected.
    pub fn process_request(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        let input_len = buffer.len();
        let result = self.enclave.ecall(input_len, input_len + 256, || {
            self.process_request_trusted(buffer)
                .map_err(|err| sgx_sim::SgxError::EnclaveFault { message: err.to_string() })
        });
        match result {
            Ok(()) => {
                *self.requests_processed.lock() += 1;
                Ok(())
            }
            Err(sgx_sim::SgxError::EnclaveFault { message }) => {
                Err(SkError::Malformed { reason: message })
            }
            Err(other) => Err(other.into()),
        }
    }

    fn process_request_trusted(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        let model = self.enclave.cost_model().clone();
        self.enclave.charge_ns(model.aes_gcm_ns(buffer.len()));
        // Transport decryption happens in place: the sealed frame becomes the
        // plaintext frame without an intermediate copy.
        self.transport.open_in_place(buffer)?;
        let (header, request) = Request::from_bytes(buffer)?;

        let (rewritten, plaintext_path) = self.encrypt_request_fields(&request, &model)?;
        *buffer = rewritten.to_bytes(&RequestHeader { xid: header.xid, op: header.op });
        self.pending.lock().push_back(PendingRequest {
            xid: header.xid,
            op: header.op,
            plaintext_path,
            created: created_paths(rewritten, request),
        });
        Ok(())
    }

    fn charge_path(&self, model: &CostModel, path: &str) {
        self.enclave.charge_ns(
            model.sha256_ns(path.len())
                + model.aes_gcm_ns(path.len())
                + model.base64_ns(path.len()),
        );
    }

    fn charge_payload(&self, model: &CostModel, len: usize) {
        self.enclave.charge_ns(model.aes_gcm_ns(len + PayloadCipher::overhead()));
    }

    /// Rewrites a CREATE towards the store: encrypted path, payload sealed
    /// and bound to the plaintext path (with the Sequential flag for
    /// sequential modes, so the counter enclave's merged name still verifies
    /// the binding). Used verbatim for standalone creates and creates inside
    /// a `multi` — the sealing rules must never diverge between the two.
    fn encrypt_create(
        &self,
        create: &jute::records::CreateRequest,
        model: &CostModel,
    ) -> Result<jute::records::CreateRequest, SkError> {
        self.charge_path(model, &create.path);
        self.charge_payload(model, create.data.len());
        let flag = if create.mode.is_sequential() {
            SequentialFlag::Sequential
        } else {
            SequentialFlag::Regular
        };
        Ok(jute::records::CreateRequest {
            path: self.path_cipher.encrypt_path(&create.path)?,
            data: self.payload_cipher.seal(&create.path, &create.data, flag),
            mode: create.mode,
        })
    }

    /// Rewrites a SET towards the store (standalone or inside a `multi`).
    fn encrypt_set_data(
        &self,
        set: &jute::records::SetDataRequest,
        model: &CostModel,
    ) -> Result<jute::records::SetDataRequest, SkError> {
        self.charge_path(model, &set.path);
        self.charge_payload(model, set.data.len());
        Ok(jute::records::SetDataRequest {
            path: self.path_cipher.encrypt_path(&set.path)?,
            data: self.payload_cipher.seal(&set.path, &set.data, SequentialFlag::Regular),
            version: set.version,
        })
    }

    /// Rewrites a DELETE towards the store (standalone or inside a `multi`).
    fn encrypt_delete(
        &self,
        delete: &jute::records::DeleteRequest,
        model: &CostModel,
    ) -> Result<jute::records::DeleteRequest, SkError> {
        self.charge_path(model, &delete.path);
        Ok(jute::records::DeleteRequest {
            path: self.path_cipher.encrypt_path(&delete.path)?,
            version: delete.version,
        })
    }

    /// Rewrites a CHECK towards the store (standalone or inside a `multi`).
    fn encrypt_check(
        &self,
        check: &jute::records::CheckVersionRequest,
        model: &CostModel,
    ) -> Result<jute::records::CheckVersionRequest, SkError> {
        self.charge_path(model, &check.path);
        Ok(jute::records::CheckVersionRequest {
            path: self.path_cipher.encrypt_path(&check.path)?,
            version: check.version,
        })
    }

    fn encrypt_request_fields(
        &self,
        request: &Request,
        model: &CostModel,
    ) -> Result<(Request, Option<String>), SkError> {
        Ok(match request {
            Request::Create(create) => {
                (Request::Create(self.encrypt_create(create, model)?), Some(create.path.clone()))
            }
            Request::SetData(set) => {
                (Request::SetData(self.encrypt_set_data(set, model)?), Some(set.path.clone()))
            }
            Request::GetData(get) => {
                self.charge_path(model, &get.path);
                let encrypted = jute::records::GetDataRequest {
                    path: self.path_cipher.encrypt_path(&get.path)?,
                    watch: get.watch,
                };
                (Request::GetData(encrypted), Some(get.path.clone()))
            }
            Request::Delete(delete) => {
                (Request::Delete(self.encrypt_delete(delete, model)?), Some(delete.path.clone()))
            }
            Request::Exists(exists) => {
                self.charge_path(model, &exists.path);
                let encrypted = jute::records::ExistsRequest {
                    path: self.path_cipher.encrypt_path(&exists.path)?,
                    watch: exists.watch,
                };
                (Request::Exists(encrypted), Some(exists.path.clone()))
            }
            Request::GetChildren(ls) => {
                self.charge_path(model, &ls.path);
                let encrypted = jute::records::GetChildrenRequest {
                    path: self.path_cipher.encrypt_path(&ls.path)?,
                    watch: ls.watch,
                };
                (Request::GetChildren(encrypted), Some(ls.path.clone()))
            }
            Request::Check(check) => {
                (Request::Check(self.encrypt_check(check, model)?), Some(check.path.clone()))
            }
            Request::Multi(multi) => {
                // Each sub-operation is rewritten by the same helper as its
                // standalone counterpart, so the untrusted server sees a
                // well-formed multi over ciphertext paths and payloads.
                let mut ops = Vec::with_capacity(multi.ops.len());
                for op in &multi.ops {
                    ops.push(match op {
                        jute::multi::Op::Create(create) => {
                            jute::multi::Op::Create(self.encrypt_create(create, model)?)
                        }
                        jute::multi::Op::SetData(set) => {
                            jute::multi::Op::SetData(self.encrypt_set_data(set, model)?)
                        }
                        jute::multi::Op::Delete(delete) => {
                            jute::multi::Op::Delete(self.encrypt_delete(delete, model)?)
                        }
                        jute::multi::Op::Check(check) => {
                            jute::multi::Op::Check(self.encrypt_check(check, model)?)
                        }
                    });
                }
                (Request::Multi(jute::multi::MultiRequest::new(ops)), None)
            }
            Request::Ping => (Request::Ping, None),
            Request::CloseSession => (Request::CloseSession, None),
            Request::Connect(connect) => (Request::Connect(connect.clone()), None),
        })
    }

    /// `ec_response`: processes a serialized ZooKeeper response in `buffer`,
    /// decrypting sensitive fields and applying the transport encryption so
    /// only the client can read the result.
    ///
    /// # Errors
    ///
    /// Returns [`SkError`] when the response does not match a pending request,
    /// fails to parse, or fails integrity verification (including the
    /// payload-to-path binding check).
    pub fn process_response(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        let input_len = buffer.len();
        let result = self.enclave.ecall(input_len, input_len + 64, || {
            self.process_response_trusted(buffer)
                .map_err(|err| sgx_sim::SgxError::EnclaveFault { message: err.to_string() })
        });
        match result {
            Ok(()) => Ok(()),
            Err(sgx_sim::SgxError::EnclaveFault { message }) => {
                Err(SkError::IntegrityViolation { what: message })
            }
            Err(other) => Err(other.into()),
        }
    }

    fn process_response_trusted(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        let model = self.enclave.cost_model().clone();
        let pending = self.pending.lock().pop_front().ok_or(SkError::FifoViolation)?;
        let (header, response) = Response::from_bytes(buffer, pending.op)?;
        if header.xid != pending.xid {
            return Err(SkError::FifoViolation);
        }

        let rewritten = self.decrypt_response_fields(pending, response, &model)?;
        let mut plain = rewritten.to_bytes(&ReplyHeader {
            xid: header.xid,
            zxid: header.zxid,
            err: header.err,
        });
        self.enclave.charge_ns(model.aes_gcm_ns(plain.len()));
        // Transport encryption appends the tag to the serialized response in
        // place; the result then replaces the caller's buffer without a copy.
        self.transport.seal_in_place(&mut plain);
        *buffer = plain;
        Ok(())
    }

    /// `ec_event`: protects a server-initiated watch notification for the
    /// client. The encrypted znode path stored by the untrusted service is
    /// rewritten to plaintext inside the enclave (when it decrypts — paths
    /// not produced by an entry enclave pass through unchanged), then the
    /// whole frame is sealed with the session's transport key so the
    /// notification travels the same protected channel as responses.
    ///
    /// # Errors
    ///
    /// Returns [`SkError`] when the notification cannot be parsed.
    pub fn seal_event(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        let input_len = buffer.len();
        let result = self.enclave.ecall(input_len, input_len + 64, || {
            self.seal_event_trusted(buffer)
                .map_err(|err| sgx_sim::SgxError::EnclaveFault { message: err.to_string() })
        });
        match result {
            Ok(()) => Ok(()),
            Err(sgx_sim::SgxError::EnclaveFault { message }) => {
                Err(SkError::Malformed { reason: message })
            }
            Err(other) => Err(other.into()),
        }
    }

    fn seal_event_trusted(&self, buffer: &mut Vec<u8>) -> Result<(), SkError> {
        use jute::records::WatcherEvent;

        let model = self.enclave.cost_model().clone();
        let mut input = jute::InputArchive::new(buffer);
        let header = ReplyHeader::deserialize(&mut input)?;
        let mut event = WatcherEvent::deserialize(&mut input)?;
        input.expect_exhausted()?;

        self.enclave
            .charge_ns(model.aes_gcm_ns(event.path.len()) + model.base64_ns(event.path.len()));
        if let Ok(plaintext) = self.path_cipher.decrypt_path(&event.path) {
            event.path = plaintext;
        }

        let mut out = jute::OutputArchive::with_capacity(32 + event.path.len());
        header.serialize(&mut out);
        event.serialize(&mut out);
        let mut plain = out.into_bytes();
        self.enclave.charge_ns(model.aes_gcm_ns(plain.len()));
        self.transport.seal_in_place(&mut plain);
        *buffer = plain;
        Ok(())
    }

    /// The plaintext of a path a create result names: the recorded
    /// plaintext when the store returned exactly the ciphertext this enclave
    /// produced for that create, else a decryption (a sequence-merged name,
    /// or anything the store altered).
    fn created_plaintext(
        &self,
        path: String,
        record: Option<(String, String)>,
        model: &CostModel,
    ) -> Result<String, SkError> {
        match record {
            Some((ciphertext, plaintext)) if ciphertext == path => Ok(plaintext),
            _ => {
                self.enclave.charge_ns(model.aes_gcm_ns(path.len()) + model.base64_ns(path.len()));
                self.path_cipher.decrypt_path(&path)
            }
        }
    }

    fn decrypt_response_fields(
        &self,
        pending: PendingRequest,
        response: Response,
        model: &CostModel,
    ) -> Result<Response, SkError> {
        let mut created = pending.created.into_iter();
        Ok(match response {
            Response::GetData(get) => {
                let path = pending.plaintext_path.as_deref().ok_or_else(|| SkError::Malformed {
                    reason: "GET response without a pending path".into(),
                })?;
                self.enclave.charge_ns(model.aes_gcm_ns(get.data.len()));
                let payload = self.payload_cipher.open_vec(path, get.data)?;
                let mut stat = get.stat;
                stat.data_length = payload.len() as i32;
                Response::GetData(GetDataResponse { data: payload, stat })
            }
            Response::Create(create) => Response::Create(CreateResponse {
                path: self.created_plaintext(create.path, created.next(), model)?,
            }),
            Response::GetChildren(ls) => {
                let mut children = Vec::with_capacity(ls.children.len());
                for child in &ls.children {
                    self.enclave
                        .charge_ns(model.aes_gcm_ns(child.len()) + model.base64_ns(child.len()));
                    children.push(self.path_cipher.decrypt_chunk(child)?);
                }
                children.sort();
                Response::GetChildren(GetChildrenResponse { children })
            }
            Response::Multi(multi) => {
                // Only CREATE results carry storage ciphertext (the final,
                // possibly sequence-merged path); everything else — stats,
                // acks, per-operation error codes of an abort — passes
                // through unchanged. A committed multi answers its k-th
                // create with its k-th CREATE result.
                let mut results = Vec::with_capacity(multi.results.len());
                for result in multi.results {
                    results.push(match result {
                        jute::multi::OpResult::Create { path } => jute::multi::OpResult::Create {
                            path: self.created_plaintext(path, created.next(), model)?,
                        },
                        other => other,
                    });
                }
                Response::Multi(jute::multi::MultiResponse::new(results))
            }
            other => other,
        })
    }
}

/// The `(ciphertext, plaintext)` path of every create in `request`, paired
/// with its storage rewrite `rewritten`, in request order. Both are consumed:
/// the paths move out once the rewrite is serialized, without copies.
fn created_paths(rewritten: Request, request: Request) -> Vec<(String, String)> {
    match (rewritten, request) {
        (Request::Create(sealed), Request::Create(plain)) => vec![(sealed.path, plain.path)],
        (Request::Multi(sealed), Request::Multi(plain)) => sealed
            .ops
            .into_iter()
            .zip(plain.ops)
            .filter_map(|ops| match ops {
                (jute::multi::Op::Create(sealed), jute::multi::Op::Create(plain)) => {
                    Some((sealed.path, plain.path))
                }
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jute::records::{CreateMode, CreateRequest, ErrorCode, GetDataRequest};

    fn enclave() -> (Epc, EntryEnclave, TransportChannel) {
        let epc = Epc::new();
        let storage = StorageKey::derive_from_label("cluster");
        let session = SessionKey::derive_from_label("client-1");
        let entry = EntryEnclave::new(&epc, &storage, &session, CostModel::default()).unwrap();
        let client_transport = TransportChannel::client_side(&session);
        (epc, entry, client_transport)
    }

    fn wire_request(transport: &TransportChannel, xid: i32, request: &Request) -> Vec<u8> {
        transport.seal(&request.to_bytes(&RequestHeader { xid, op: request.op() }))
    }

    #[test]
    fn create_request_is_storage_encrypted() {
        let (_epc, entry, client) = enclave();
        let request = Request::Create(CreateRequest {
            path: "/app/secret-config".into(),
            data: b"password=hunter2".to_vec(),
            mode: CreateMode::Persistent,
        });
        let mut buffer = wire_request(&client, 1, &request);
        entry.process_request(&mut buffer).unwrap();

        // The rewritten request parses as a valid ZooKeeper message…
        let (header, rewritten) = Request::from_bytes(&buffer).unwrap();
        assert_eq!(header.xid, 1);
        let rewritten_create = match rewritten {
            Request::Create(c) => c,
            other => panic!("unexpected {other:?}"),
        };
        // …but neither the path nor the payload are visible.
        assert!(!rewritten_create.path.contains("secret-config"));
        assert!(!String::from_utf8_lossy(&rewritten_create.data).contains("hunter2"));
        assert_eq!(entry.pending_requests(), 1);
        assert_eq!(entry.requests_processed(), 1);
        assert!(entry.enclave().stats().ecalls >= 1);
    }

    #[test]
    fn get_response_is_decrypted_verified_and_transport_encrypted() {
        let (_epc, entry, client) = enclave();
        let storage = StorageKey::derive_from_label("cluster");
        let payload_cipher = PayloadCipher::new(&storage);

        // Client sends a GET; the enclave rewrites it and remembers the path.
        let request = Request::GetData(GetDataRequest { path: "/app/cfg".into(), watch: false });
        let mut buffer = wire_request(&client, 7, &request);
        entry.process_request(&mut buffer).unwrap();

        // The untrusted store answers with the stored (encrypted) payload.
        let stored = payload_cipher.seal("/app/cfg", b"plaintext-value", SequentialFlag::Regular);
        let response = Response::GetData(GetDataResponse {
            data: stored,
            stat: jute::records::Stat::default(),
        });
        let mut response_buffer =
            response.to_bytes(&ReplyHeader { xid: 7, zxid: 3, err: ErrorCode::Ok });
        entry.process_response(&mut response_buffer).unwrap();

        // Only the client can open the result, and it sees the plaintext.
        let plain = client.open(&response_buffer).unwrap();
        let (header, decoded) = Response::from_bytes(&plain, OpCode::GetData).unwrap();
        assert_eq!(header.xid, 7);
        match decoded {
            Response::GetData(get) => {
                assert_eq!(get.data, b"plaintext-value");
                assert_eq!(get.stat.data_length, 15);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(entry.pending_requests(), 0);
    }

    #[test]
    fn swapped_payload_is_rejected_by_binding_check() {
        let (_epc, entry, client) = enclave();
        let storage = StorageKey::derive_from_label("cluster");
        let payload_cipher = PayloadCipher::new(&storage);

        let request = Request::GetData(GetDataRequest { path: "/victim".into(), watch: false });
        let mut buffer = wire_request(&client, 1, &request);
        entry.process_request(&mut buffer).unwrap();

        // The attacker substitutes the payload of a different znode.
        let foreign = payload_cipher.seal("/attacker-node", b"forged", SequentialFlag::Regular);
        let response = Response::GetData(GetDataResponse {
            data: foreign,
            stat: jute::records::Stat::default(),
        });
        let mut response_buffer =
            response.to_bytes(&ReplyHeader { xid: 1, zxid: 1, err: ErrorCode::Ok });
        let err = entry.process_response(&mut response_buffer).unwrap_err();
        assert!(matches!(err, SkError::IntegrityViolation { .. }));
    }

    #[test]
    fn responses_without_pending_requests_are_rejected() {
        let (_epc, entry, _client) = enclave();
        let mut buffer =
            Response::Ping.to_bytes(&ReplyHeader { xid: 0, zxid: 0, err: ErrorCode::Ok });
        let err = entry.process_response(&mut buffer).unwrap_err();
        assert!(matches!(err, SkError::IntegrityViolation { .. } | SkError::FifoViolation));
    }

    #[test]
    fn garbage_requests_are_rejected() {
        let (_epc, entry, _client) = enclave();
        let mut buffer = vec![0u8; 40];
        assert!(entry.process_request(&mut buffer).is_err());
    }

    #[test]
    fn ping_passes_through_but_still_counts_as_pending() {
        let (_epc, entry, client) = enclave();
        let mut buffer = wire_request(&client, 9, &Request::Ping);
        entry.process_request(&mut buffer).unwrap();
        let (_, rewritten) = Request::from_bytes(&buffer).unwrap();
        assert_eq!(rewritten, Request::Ping);
        assert_eq!(entry.pending_requests(), 1);
    }

    #[test]
    fn error_responses_pass_through_to_the_client() {
        let (_epc, entry, client) = enclave();
        let request = Request::GetData(GetDataRequest { path: "/missing".into(), watch: false });
        let mut buffer = wire_request(&client, 2, &request);
        entry.process_request(&mut buffer).unwrap();

        let response = Response::Error(ErrorCode::NoNode);
        let mut response_buffer =
            response.to_bytes(&ReplyHeader { xid: 2, zxid: 0, err: ErrorCode::Ok });
        entry.process_response(&mut response_buffer).unwrap();
        let plain = client.open(&response_buffer).unwrap();
        let (_, decoded) = Response::from_bytes(&plain, OpCode::GetData).unwrap();
        assert_eq!(decoded, Response::Error(ErrorCode::NoNode));
    }

    #[test]
    fn multi_requests_are_storage_encrypted_per_sub_op() {
        use jute::multi::{MultiRequest, MultiResponse, Op, OpResult};
        use jute::records::{CheckVersionRequest, DeleteRequest, SetDataRequest};

        let (_epc, entry, client) = enclave();
        let request = Request::Multi(MultiRequest::new(vec![
            Op::Check(CheckVersionRequest { path: "/app/guard".into(), version: 1 }),
            Op::Create(CreateRequest {
                path: "/app/secret".into(),
                data: b"password=hunter2".to_vec(),
                mode: CreateMode::Persistent,
            }),
            Op::SetData(SetDataRequest {
                path: "/app/cfg".into(),
                data: b"topsecret".to_vec(),
                version: -1,
            }),
            Op::Delete(DeleteRequest { path: "/app/old".into(), version: 0 }),
        ]));
        let mut buffer = wire_request(&client, 3, &request);
        entry.process_request(&mut buffer).unwrap();

        // The rewritten multi parses, keeps the structure, but leaks nothing.
        let (header, rewritten) = Request::from_bytes(&buffer).unwrap();
        assert_eq!(header.xid, 3);
        let multi = match rewritten {
            Request::Multi(multi) => multi,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(multi.ops.len(), 4);
        for op in &multi.ops {
            assert!(!op.path().contains("app"), "plaintext path leaked: {}", op.path());
            assert!(!op.path().contains("guard"), "plaintext path leaked: {}", op.path());
            if let Op::Create(create) = op {
                assert!(!String::from_utf8_lossy(&create.data).contains("hunter2"));
            }
            if let Op::SetData(set) = op {
                assert!(!String::from_utf8_lossy(&set.data).contains("topsecret"));
            }
        }
        // Version guards survive the rewrite untouched.
        assert!(matches!(&multi.ops[0], Op::Check(check) if check.version == 1));
        assert!(matches!(&multi.ops[3], Op::Delete(delete) if delete.version == 0));

        // An aborted response carries its typed per-op error codes through
        // the sealed transport unchanged.
        let response = Response::Multi(MultiResponse::aborted(4, 0, ErrorCode::BadVersion));
        let mut response_buffer =
            response.to_bytes(&ReplyHeader { xid: 3, zxid: 0, err: ErrorCode::Ok });
        entry.process_response(&mut response_buffer).unwrap();
        let plain = client.open(&response_buffer).unwrap();
        let (_, decoded) = Response::from_bytes(&plain, OpCode::Multi).unwrap();
        assert_eq!(decoded, response);
        match decoded {
            Response::Multi(multi) => {
                assert_eq!(multi.first_error(), Some((0, ErrorCode::BadVersion)));
                assert_eq!(multi.results[1], OpResult::Error(ErrorCode::RuntimeInconsistency));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// An entry enclave sharing `cache`, with its client's transport.
    fn cached_enclave(cache: &Arc<PathCipherCache>) -> (Epc, EntryEnclave, TransportChannel) {
        let epc = Epc::new();
        let storage = StorageKey::derive_from_label("cluster");
        let session = SessionKey::derive_from_label("client-1");
        let entry = EntryEnclave::with_path_cache(
            &epc,
            &storage,
            &session,
            CostModel::default(),
            Arc::clone(cache),
        )
        .unwrap();
        (epc, entry, TransportChannel::client_side(&session))
    }

    /// Sends `request` through the enclave and returns the rewritten one.
    fn rewrite(
        entry: &EntryEnclave,
        client: &TransportChannel,
        xid: i32,
        request: &Request,
    ) -> Request {
        let mut buffer = wire_request(client, xid, request);
        entry.process_request(&mut buffer).unwrap();
        Request::from_bytes(&buffer).unwrap().1
    }

    /// Answers `xid` with `response` through the enclave; what the client reads.
    fn answer(
        entry: &EntryEnclave,
        client: &TransportChannel,
        xid: i32,
        op: OpCode,
        response: &Response,
    ) -> Result<Response, SkError> {
        let mut buffer = response.to_bytes(&ReplyHeader { xid, zxid: 5, err: ErrorCode::Ok });
        entry.process_response(&mut buffer)?;
        Ok(Response::from_bytes(&client.open(&buffer).unwrap(), op).unwrap().1)
    }

    fn create(path: &str, mode: CreateMode) -> CreateRequest {
        CreateRequest { path: path.into(), data: b"v".to_vec(), mode }
    }

    #[test]
    fn own_create_results_are_answered_without_decrypting() {
        use jute::multi::{MultiRequest, MultiResponse, Op, OpResult};

        let cache = Arc::new(PathCipherCache::default());
        let (_epc, entry, client) = cached_enclave(&cache);
        let request = Request::Create(create("/app/a", CreateMode::Persistent));
        let Request::Create(sealed) = rewrite(&entry, &client, 1, &request) else { panic!() };
        let lookups = cache.hits() + cache.misses();
        let response = Response::Create(CreateResponse { path: sealed.path });
        let plain = answer(&entry, &client, 1, OpCode::Create, &response).unwrap();
        assert_eq!(plain, Response::Create(CreateResponse { path: "/app/a".into() }));
        assert_eq!(cache.hits() + cache.misses(), lookups, "no path-cache lookup");

        let request = Request::Multi(MultiRequest::new(vec![
            Op::Create(create("/app/b", CreateMode::Persistent)),
            Op::Delete(jute::records::DeleteRequest { path: "/app/a".into(), version: -1 }),
            Op::Create(create("/app/c", CreateMode::Persistent)),
        ]));
        let Request::Multi(sealed) = rewrite(&entry, &client, 2, &request) else { panic!() };
        let lookups = cache.hits() + cache.misses();
        let results = vec![
            OpResult::Create { path: sealed.ops[0].path().to_string() },
            OpResult::Delete,
            OpResult::Create { path: sealed.ops[2].path().to_string() },
        ];
        let plain = answer(
            &entry,
            &client,
            2,
            OpCode::Multi,
            &Response::Multi(MultiResponse::new(results)),
        )
        .unwrap();
        let expected = vec![
            OpResult::Create { path: "/app/b".into() },
            OpResult::Delete,
            OpResult::Create { path: "/app/c".into() },
        ];
        assert_eq!(plain, Response::Multi(MultiResponse::new(expected)));
        assert_eq!(cache.hits() + cache.misses(), lookups, "no path-cache lookup");
    }

    #[test]
    fn other_create_results_are_still_decrypted_and_verified() {
        use jute::multi::{MultiRequest, MultiResponse, Op, OpResult};

        let cache = Arc::new(PathCipherCache::default());
        let (_epc, entry, client) = cached_enclave(&cache);
        let cipher = PathCipher::new(&StorageKey::derive_from_label("cluster"));

        // The store answers with a different, validly encrypted path: the
        // enclave reports what that ciphertext decrypts to, as before.
        rewrite(&entry, &client, 1, &Request::Create(create("/app/a", CreateMode::Persistent)));
        let other = cipher.encrypt_path("/app/other").unwrap();
        let response = Response::Create(CreateResponse { path: other });
        let plain = answer(&entry, &client, 1, OpCode::Create, &response).unwrap();
        assert_eq!(plain, Response::Create(CreateResponse { path: "/app/other".into() }));

        // A tampered ciphertext fails authentication.
        let request = Request::Multi(MultiRequest::new(vec![Op::Create(create(
            "/app/b",
            CreateMode::Persistent,
        ))]));
        let Request::Multi(sealed) = rewrite(&entry, &client, 2, &request) else { panic!() };
        let mut tampered = sealed.ops[0].path().to_string();
        let last = tampered.pop().unwrap();
        tampered.push(if last == 'A' { 'B' } else { 'A' });
        let results = vec![OpResult::Create { path: tampered }];
        let response = Response::Multi(MultiResponse::new(results));
        let err = answer(&entry, &client, 2, OpCode::Multi, &response).unwrap_err();
        assert!(matches!(err, SkError::IntegrityViolation { .. }), "{err:?}");
    }

    #[test]
    fn multibyte_sequential_create_is_sealed_without_panicking() {
        // Ten bytes from the end of "/ééééabc" fall inside an 'é'; the
        // sequence-suffix check must not slice there.
        let (_epc, entry, client) = enclave();
        for mode in [CreateMode::PersistentSequential, CreateMode::EphemeralSequential] {
            let request = Request::Create(create("/ééééabc", mode));
            let Request::Create(sealed) = rewrite(&entry, &client, 1, &request) else { panic!() };
            assert!(!sealed.path.contains('é'));
        }
    }

    #[test]
    fn many_enclaves_fit_in_the_epc_without_paging() {
        // Paper §6.5: more than 150 entry enclaves fit in the EPC.
        let epc = Epc::new();
        let storage = StorageKey::derive_from_label("cluster");
        let mut enclaves = Vec::new();
        for i in 0..150 {
            let session = SessionKey::derive_from_label(&format!("client-{i}"));
            enclaves
                .push(EntryEnclave::new(&epc, &storage, &session, CostModel::default()).unwrap());
        }
        assert!(!epc.usage().is_paging(), "allocated {} bytes", epc.usage().allocated_bytes);
    }
}
