//! Smoke test: every workload runs at tiny scale in both modes and prints
//! every metric `BENCHMARK.json` names; the read verifier rejects a
//! corrupted payload served over a real connection; the no-plaintext scan
//! finds a node stored past the entry enclave.

use std::process::Command;
use std::sync::Arc;

use jute::records::{CreateMode, CreateRequest};
use jute::{Request, Response};
use perfbench::deploy::{Deployment, SESSION_TIMEOUT_MS};
use perfbench::gen;
use perfbench::session::{Choosers, Session};
use perfbench::spec::{Call, Spec, Workload};
use zkserver::ZkTcpClient;

/// `(name, unit)` of every metric listed under `section` of
/// `BENCHMARK.json`.
fn contract_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = contract.find(&format!("\"{section}\"")).expect("section present");
    let body = &contract[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn run(workload: Workload, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", "3", "--seconds", "1", "--tiny"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{} trace {trace} failed:\n{stdout}", workload.name());
    stdout
}

#[test]
fn every_workload_prints_every_named_metric() {
    let end_to_end = contract_metrics("end_to_end");
    let per_layer = contract_metrics("per_layer");
    assert!(end_to_end.iter().any(|(name, _)| name == "setup_s"));
    for workload in Workload::ALL {
        for (trace, metrics) in [(0, &end_to_end), (1, &per_layer)] {
            let stdout = run(workload, trace);
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true"), "{result}");
            for (name, unit) in metrics {
                let value = format!("\"{name}\": {{\"value\": ");
                let at = result.find(&value).unwrap_or_else(|| panic!("{name} missing: {result}"));
                let unit = format!("\"unit\": \"{unit}\"}}");
                assert!(result[at..].contains(&unit), "{name} lacks unit {unit}");
            }
            if trace == 0 {
                let mut printed =
                    vec!["throughput_ops_s", "latency_p50_us", "latency_p99_us", "error_rate"];
                if workload != Workload::ReadSecure {
                    printed.push("write_p50_us");
                }
                for name in printed {
                    let line = format!("\n{name} ");
                    assert!(stdout.contains(&line), "{} lacks {name}", workload.name());
                }
            }
        }
    }
}

#[test]
fn a_corrupted_read_is_rejected() {
    let spec = Arc::new(Spec::new(Workload::ReadSecure, 5, true));
    let deployment = Deployment::start(Arc::clone(&spec), false).expect("start read-secure");
    let target = deployment.session_targets()[0];
    let mut session = Session::connect(
        0,
        Arc::clone(&spec),
        Choosers::new(&spec),
        target,
        deployment.credentials(),
        None,
    )
    .expect("connect session");
    let key = 7;
    session.execute(&Call::Get(key)).expect("the loaded payload verifies");

    // Another client rewrites the key with version 1's payload, one bit
    // flipped in its body.
    let mut corrupted = gen::payload(spec.seed, key as u32, 1, spec.payload);
    corrupted[40] ^= 1;
    let mut writer =
        ZkTcpClient::connect_with(target.0, deployment.credentials(), SESSION_TIMEOUT_MS)
            .expect("connect writer");
    writer.set_data(&spec.key_path(key), corrupted, 0).expect("overwrite");
    writer.close();

    let violation = session.execute(&Call::Get(key)).expect_err("the corrupted read must fail");
    assert!(violation.0.contains(&format!("key {key} v1")), "{}", violation.0);
    session.close();
    deployment.shutdown();
}

#[test]
fn a_plaintext_node_fails_the_seal_check() {
    let spec = Arc::new(Spec::new(Workload::ReadSecure, 5, true));
    let deployment = Deployment::start(Arc::clone(&spec), false).expect("start read-secure");
    let versions = vec![0; spec.keys];
    deployment.check_sealed(&versions).expect("the loaded member holds only ciphertext");

    // A create applied to the replica directly never passes the entry
    // enclave, so its path is stored in plaintext.
    let replica = deployment.ensembles[0][0].replica();
    let session = replica.connect(SESSION_TIMEOUT_MS).session_id;
    let create = Request::Create(CreateRequest {
        path: "/r".into(),
        data: Vec::new(),
        mode: CreateMode::Persistent,
    });
    assert!(matches!(replica.handle_request(session, &create), Response::Create(_)));

    let leak = deployment.check_sealed(&versions).expect_err("the plaintext node must be found");
    assert!(leak.contains("plaintext component r"), "{leak}");
    deployment.shutdown();
}
