//! Criterion micro-benchmarks of the hot paths underlying the paper's
//! evaluation: the cryptographic primitives used by the enclaves, path and
//! payload encryption, wire serialization, enclave transitions, data-tree
//! operations, and one end-to-end secure request.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use std::sync::Arc;

use jute::records::{CreateMode, CreateRequest, GetDataRequest, RequestHeader};
use jute::{OpCode, Request};
use securekeeper::integration::{secure_cluster, SecureKeeperConfig};
use securekeeper::path_cache::PathCipherCache;
use securekeeper::path_crypto::PathCipher;
use securekeeper::payload_crypto::{PayloadCipher, SequentialFlag};
use securekeeper::SecureKeeperClient;
use sgx_sim::{EnclaveBuilder, Epc};
use zkcrypto::aes::Aes128;
use zkcrypto::gcm::{gf128_mul, AesGcm128, Ghash, GhashTable};
use zkcrypto::keys::{Key128, StorageKey};
use zkcrypto::sha256::Sha256;
use zkserver::client::share;
use zkserver::{DataTree, ZkClient, ZkCluster};

fn bench_crypto_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("zkcrypto");
    let cipher = AesGcm128::new(&Key128::from_bytes([7u8; 16]));
    for &size in &[64usize, 1024, 4096] {
        let payload = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("aes_gcm_seal", size), &payload, |b, payload| {
            b.iter(|| cipher.seal(&[1u8; 12], payload, b""))
        });
        group.bench_with_input(
            BenchmarkId::new("aes_gcm_seal_in_place", size),
            &payload,
            |b, payload| {
                let mut buffer = Vec::with_capacity(size + 16);
                b.iter(|| {
                    buffer.clear();
                    buffer.extend_from_slice(payload);
                    cipher.seal_in_place(&[1u8; 12], &mut buffer, b"");
                    buffer.len()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sha256", size), &payload, |b, payload| {
            b.iter(|| Sha256::digest(payload))
        });
    }
    // The seed's naive seal, reconstructed from the retained reference
    // primitives (per-block `encrypt_block_copy` CTR, bit-serial GHASH,
    // separate output allocation) — the "before" row for aes_gcm_seal.
    let reference_aes = Aes128::new(&[7u8; 16]);
    for &size in &[1024usize, 4096] {
        let payload = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("aes_gcm_seal_seed_naive", size),
            &payload,
            |b, payload| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(payload.len() + 16);
                    out.extend_from_slice(payload);
                    let mut counter = [1u8; 16];
                    counter[15] = 2;
                    for chunk in out.chunks_mut(16) {
                        let keystream = reference_aes.encrypt_block_copy(&counter);
                        for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                            *byte ^= ks;
                        }
                        let ctr = u32::from_be_bytes([
                            counter[12],
                            counter[13],
                            counter[14],
                            counter[15],
                        ]);
                        counter[12..16].copy_from_slice(&ctr.wrapping_add(1).to_be_bytes());
                    }
                    let h = u128::from_be_bytes(reference_aes.encrypt_block_copy(&[0u8; 16]));
                    let mut y = 0u128;
                    for chunk in out.chunks(16) {
                        let mut block = [0u8; 16];
                        block[..chunk.len()].copy_from_slice(chunk);
                        y = gf128_mul(y ^ u128::from_be_bytes(block), h);
                    }
                    y = gf128_mul(y ^ ((out.len() as u128) * 8), h);
                    let mut j0 = [1u8; 16];
                    j0[15] = 1;
                    let e_j0 = reference_aes.encrypt_block_copy(&j0);
                    let tag: Vec<u8> =
                        y.to_be_bytes().iter().zip(e_j0.iter()).map(|(a, b)| a ^ b).collect();
                    out.extend_from_slice(&tag);
                    out
                })
            },
        );
    }
    group.finish();
}

/// Before/after benchmarks of the table-driven fast paths against the
/// retained reference implementations. The `reference` rows are the seed's
/// naive algorithms; the `table` rows are the shipped hot paths — any
/// regression shows up as the ratio collapsing.
fn bench_crypto_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("zkcrypto_fastpath");

    // One AES-128 block: T-tables vs byte-oriented reference.
    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0x5au8; 16];
    group.bench_function("aes_block/table", |b| {
        b.iter(|| {
            aes.encrypt_block(&mut block);
            block[0]
        })
    });
    group.bench_function("aes_block/reference", |b| {
        b.iter(|| {
            aes.encrypt_block_reference(&mut block);
            block[0]
        })
    });

    // One GF(2^128) multiplication: 4-bit table vs 128-round bit-serial loop.
    let h = 0xb83b533708bf535d0aa6e52980d53b78u128;
    let table = GhashTable::new(h);
    let x = 0x0388dace60b6a392f328c2b971b2fe78u128;
    group.bench_function("gf128_mul/table", |b| b.iter(|| table.mul(x)));
    group.bench_function("gf128_mul/reference", |b| b.iter(|| gf128_mul(x, h)));

    // GHASH over 1 KB: the shipped aggregated-table path vs the seed's
    // serial bit-serial loop.
    let bytes_1k: Vec<u8> = (0..1024usize).map(|i| (i * 37 + 11) as u8).collect();
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("ghash_1k/table", |b| {
        b.iter(|| {
            let mut ghash = Ghash::new(&table);
            ghash.update_padded(&bytes_1k);
            ghash.finalize()
        })
    });
    group.bench_function("ghash_1k/reference", |b| {
        b.iter(|| {
            let mut y = 0u128;
            for block in bytes_1k.chunks(16) {
                y = gf128_mul(y ^ u128::from_be_bytes(block.try_into().unwrap()), h);
            }
            y
        })
    });

    // 4 KB CTR keystream: the in-place batch path vs a per-block
    // reference-cipher loop shaped like the seed's ctr_transform.
    let gcm = AesGcm128::new(&Key128::from_bytes([7u8; 16]));
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("ctr_4k/in_place_seal", |b| {
        let mut buffer = Vec::with_capacity(4096 + 16);
        b.iter(|| {
            buffer.clear();
            buffer.resize(4096, 0xa5);
            gcm.seal_in_place(&[1u8; 12], &mut buffer, b"");
            buffer.len()
        })
    });
    group.bench_function("ctr_4k/reference_blocks", |b| {
        let mut data = vec![0xa5u8; 4096];
        b.iter(|| {
            let mut counter = [0u8; 16];
            counter[15] = 2;
            for chunk in data.chunks_mut(16) {
                let mut keystream = counter;
                aes.encrypt_block_reference(&mut keystream);
                for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                    *byte ^= ks;
                }
                let ctr = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
                counter[12..16].copy_from_slice(&ctr.wrapping_add(1).to_be_bytes());
            }
            data[0]
        })
    });

    // Whole AES-GCM seals on the table-driven portable fallback, so a
    // fallback regression shows even on hosts whose default backend
    // (`zkcrypto/aes_gcm_seal/*`) is the AES-NI + CLMUL kernel.
    let portable = AesGcm128::portable(&Key128::from_bytes([7u8; 16]));
    for &size in &[64usize, 1024, 4096] {
        let payload = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("aes_gcm_seal_portable", size),
            &payload,
            |b, payload| b.iter(|| portable.seal(&[1u8; 12], payload, b"")),
        );
    }

    group.finish();
}

fn bench_path_and_payload_encryption(c: &mut Criterion) {
    let mut group = c.benchmark_group("securekeeper_storage_crypto");
    let storage = StorageKey::derive_from_label("bench");
    let path_cipher = PathCipher::new(&storage);
    let payload_cipher = PayloadCipher::new(&storage);
    let deep_path = "/app/region-eu/service-payments/instance-0042/config";

    group.bench_function("encrypt_path_depth5", |b| {
        b.iter(|| path_cipher.encrypt_path(deep_path).unwrap())
    });
    let encrypted = path_cipher.encrypt_path(deep_path).unwrap();
    group.bench_function("decrypt_path_depth5", |b| {
        b.iter(|| path_cipher.decrypt_path(&encrypted).unwrap())
    });

    // Uncached vs warm-cache path encryption: a hit must be a map lookup
    // with no AES/SHA-256 work at all.
    group.bench_function("encrypt_path_uncached", |b| {
        b.iter(|| path_cipher.encrypt_path(deep_path).unwrap())
    });
    let cached_cipher = PathCipher::with_cache(&storage, Arc::new(PathCipherCache::default()));
    cached_cipher.encrypt_path(deep_path).unwrap();
    group.bench_function("encrypt_path_cached", |b| {
        b.iter(|| cached_cipher.encrypt_path(deep_path).unwrap())
    });
    group.bench_function("decrypt_path_cached", |b| {
        b.iter(|| cached_cipher.decrypt_path(&encrypted).unwrap())
    });

    for &size in &[128usize, 1024, 4096] {
        let payload = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal_payload", size), &payload, |b, payload| {
            b.iter(|| payload_cipher.seal(deep_path, payload, SequentialFlag::Regular))
        });
    }
    group.finish();
}

fn bench_jute(c: &mut Criterion) {
    let mut group = c.benchmark_group("jute");
    let request = Request::Create(CreateRequest {
        path: "/app/config/database".to_string(),
        data: vec![0u8; 1024],
        mode: CreateMode::Persistent,
    });
    let header = RequestHeader { xid: 7, op: OpCode::Create };
    group.bench_function("serialize_create_1k", |b| b.iter(|| request.to_bytes(&header)));
    let bytes = request.to_bytes(&header);
    group.bench_function("deserialize_create_1k", |b| {
        b.iter(|| Request::from_bytes(&bytes).unwrap())
    });
    group.finish();
}

fn bench_enclave_transitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgx_sim");
    let epc = Epc::new();
    let enclave = EnclaveBuilder::new(b"bench enclave".to_vec()).build(&epc).unwrap();
    group.bench_function("ecall_roundtrip_accounting", |b| {
        b.iter(|| enclave.ecall(1024, 1024, || Ok::<_, sgx_sim::SgxError>(())).unwrap())
    });
    group.finish();
}

fn bench_datatree(c: &mut Criterion) {
    let mut group = c.benchmark_group("zkserver_datatree");
    let mut tree = DataTree::new();
    tree.create("/bench", Vec::new(), 0, 1, 0).unwrap();
    for i in 0..1000 {
        tree.create(&format!("/bench/node-{i:04}"), vec![0u8; 256], 0, i + 2, 0).unwrap();
    }
    group.bench_function("get_data", |b| b.iter(|| tree.get_data("/bench/node-0500").unwrap()));
    group.bench_function("get_children_1000", |b| b.iter(|| tree.get_children("/bench").unwrap()));
    let mut version = 0;
    group.bench_function("set_data", |b| {
        b.iter(|| {
            version += 1;
            tree.set_data("/bench/node-0500", vec![0u8; 256], -1, version, 0).unwrap()
        })
    });
    group.finish();
}

fn bench_end_to_end_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.measurement_time(Duration::from_secs(3));

    // Vanilla ZooKeeper request path.
    let vanilla_cluster = share(ZkCluster::new(3));
    let vanilla_replica = vanilla_cluster.lock().replica_ids()[0];
    let vanilla = ZkClient::connect(&vanilla_cluster, vanilla_replica).unwrap();
    vanilla.create("/bench", vec![0u8; 1024], CreateMode::Persistent).unwrap();
    group.bench_function("vanilla_get_1k", |b| {
        b.iter(|| vanilla.get_data("/bench", false).unwrap())
    });
    group.bench_function("vanilla_set_1k", |b| {
        b.iter(|| vanilla.set_data("/bench", vec![1u8; 1024], -1).unwrap())
    });

    // SecureKeeper request path (transport + enclave + storage crypto).
    let config = SecureKeeperConfig::with_label("criterion");
    let (sk_cluster, handles) = secure_cluster(3, &config);
    let sk_replica = sk_cluster.lock().replica_ids()[0];
    let secure = SecureKeeperClient::connect(&sk_cluster, &handles, sk_replica).unwrap();
    secure.create("/bench", vec![0u8; 1024], CreateMode::Persistent).unwrap();
    group.bench_function("securekeeper_get_1k", |b| {
        b.iter(|| secure.get_data("/bench", false).unwrap())
    });
    group.bench_function("securekeeper_set_1k", |b| {
        b.iter(|| secure.set_data("/bench", vec![1u8; 1024], -1).unwrap())
    });

    // The serialized-request path that exercises the interceptor directly.
    let request = Request::GetData(GetDataRequest { path: "/bench".to_string(), watch: false });
    group.bench_function("vanilla_serialized_get", |b| {
        let session = vanilla_cluster.lock().connect_default(vanilla_replica).unwrap().session_id;
        b.iter(|| {
            let bytes = zkserver::ZkReplica::serialize_request(1, &request);
            vanilla_cluster.lock().submit_serialized(session, bytes).unwrap()
        })
    });
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets =
        bench_crypto_primitives,
        bench_crypto_fastpath,
        bench_path_and_payload_encryption,
        bench_jute,
        bench_enclave_transitions,
        bench_datatree,
        bench_end_to_end_requests
}
criterion_main!(benches);
