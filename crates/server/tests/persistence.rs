//! End-to-end persistence tests: a server with `data_dir` set must come
//! back from a restart bit-identical — every acknowledged instance and
//! stream epoch present, every stream digest equal to its pre-restart
//! value — and a server without `data_dir` must behave exactly as it
//! always has (including evicting cached solutions on DELETE).
//!
//! These drive the real HTTP surface through [`ukc_server::client`];
//! the process-crash variant (SIGKILL, separate process) lives in
//! `crates/cli/tests/crash_recovery.rs`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use ukc_json::Json;
use ukc_server::{client, serve, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ukc-server-persist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, snapshot_interval: u64) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        snapshot_interval,
        ..ServerConfig::default()
    }
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let r = client::request(addr, "GET", path, None).expect("request");
    (r.status, Json::parse(&r.body).expect("response is JSON"))
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let r = client::request(addr, method, path, Some(body)).expect("request");
    (r.status, Json::parse(&r.body).expect("response is JSON"))
}

fn str_field(doc: &Json, key: &str) -> String {
    doc.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("missing string {key:?} in {}", doc.compact()))
        .to_string()
}

fn f64_field(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("missing number {key:?} in {}", doc.compact()))
}

/// A deterministic 2-d uncertain instance document; distinct `epoch`
/// values give distinct chunks, so a stream's digest evolves per push.
fn chunk_doc(epoch: usize, n: usize) -> String {
    let points: Vec<String> = (0..n)
        .map(|i| {
            let x = i as f64 + 0.125;
            let y = epoch as f64 * 3.5;
            format!(
                r#"{{"locations": [[{x}, {y}], [{}, {}]], "probs": [0.25, 0.75]}}"#,
                x + 0.5,
                y + 1.75
            )
        })
        .collect();
    format!(r#"{{"dim": 2, "points": [{}]}}"#, points.join(", "))
}

fn push(addr: SocketAddr, id: &str, epoch: usize) -> Json {
    let (status, doc) = send(
        addr,
        "POST",
        &format!("/streams/{id}/push"),
        &chunk_doc(epoch, 16),
    );
    assert_eq!(status, 200, "push failed: {}", doc.compact());
    doc
}

fn create_stream(addr: SocketAddr) -> String {
    let (status, doc) = send(addr, "POST", "/streams", r#"{"k": 2, "budget": 8}"#);
    assert_eq!(status, 201, "stream create failed: {}", doc.compact());
    str_field(&doc, "id")
}

fn recovery_stats(addr: SocketAddr) -> Json {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    metrics
        .get("durability")
        .and_then(|d| d.get("recovery"))
        .expect("durable server exposes durability.recovery")
        .clone()
}

/// The core restart contract, checked against a continuously-running
/// in-memory control server fed the identical request sequence: after a
/// restart the durable server's streams carry the same digests, and
/// keep producing the same digests for further pushes.
#[test]
fn restart_recovers_instances_and_streams_bit_identically() {
    let dir = temp_dir("restart");
    let control = serve(ServerConfig::default()).unwrap();
    let control_stream = create_stream(control.addr());

    let instance_id;
    let stream_id;
    {
        let server = serve(durable_config(&dir, 0)).unwrap();
        let (status, doc) = send(server.addr(), "POST", "/instances", &chunk_doc(0, 24));
        assert_eq!(status, 201);
        instance_id = str_field(&doc, "id");
        stream_id = create_stream(server.addr());
        for epoch in 1..=3usize {
            let ours = push(server.addr(), &stream_id, epoch);
            let theirs = push(control.addr(), &control_stream, epoch);
            assert_eq!(
                str_field(&ours, "digest"),
                str_field(&theirs, "digest"),
                "durable and in-memory servers diverged at epoch {epoch}"
            );
        }
        server.shutdown();
    }

    let server = serve(durable_config(&dir, 0)).unwrap();
    let (status, doc) = get(server.addr(), &format!("/instances/{instance_id}"));
    assert_eq!(status, 200, "instance lost: {}", doc.compact());
    assert_eq!(str_field(&doc, "id"), instance_id);

    let (status, doc) = get(server.addr(), &format!("/streams/{stream_id}"));
    assert_eq!(status, 200, "stream lost: {}", doc.compact());
    let (_, control_doc) = get(control.addr(), &format!("/streams/{control_stream}"));
    assert_eq!(str_field(&doc, "digest"), str_field(&control_doc, "digest"));
    assert_eq!(f64_field(&doc, "epochs"), 3.0);
    assert_eq!(
        f64_field(&doc, "points_seen"),
        f64_field(&control_doc, "points_seen")
    );

    let recovery = recovery_stats(server.addr());
    assert_eq!(f64_field(&recovery, "instances"), 1.0);
    assert_eq!(f64_field(&recovery, "streams"), 1.0);
    assert_eq!(f64_field(&recovery, "replayed_epochs"), 3.0);

    // The recovered state is live, not an inert copy: further pushes
    // track the control server exactly.
    let ours = push(server.addr(), &stream_id, 4);
    let theirs = push(control.addr(), &control_stream, 4);
    assert_eq!(str_field(&ours, "digest"), str_field(&theirs, "digest"));

    // Stream IDs keep advancing past recovered ones instead of reusing.
    let fresh = create_stream(server.addr());
    assert_ne!(fresh, stream_id);

    server.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: instances with *random* probabilities must survive a
/// restart. Random distributions rarely sum to exactly 1.0 after the
/// constructor's normalizing divide, and renormalization is not
/// bit-idempotent — recovery must rebuild stored docs verbatim
/// ([`JsonInstance::to_set_verbatim`]) or the boot-time digest check
/// rejects segments the live server itself wrote.
#[test]
fn restart_recovers_random_prob_instances() {
    use ukc_json::format::JsonInstance;
    use ukc_uncertain::generators::{clustered, ProbModel};

    let dir = temp_dir("random-probs");
    let doc = JsonInstance::from_set(&clustered(9, 100, 4, 2, 3, 5.0, 1.5, ProbModel::Random))
        .to_json()
        .compact();

    let instance_id;
    {
        let server = serve(durable_config(&dir, 0)).unwrap();
        let (status, created) = send(server.addr(), "POST", "/instances", &doc);
        assert_eq!(status, 201, "upload failed: {}", created.compact());
        instance_id = str_field(&created, "id");
        server.shutdown();
    }

    let server = serve(durable_config(&dir, 0)).unwrap();
    let (status, doc) = get(server.addr(), &format!("/instances/{instance_id}"));
    assert_eq!(status, 200, "random-prob instance lost: {}", doc.compact());
    assert_eq!(str_field(&doc, "id"), instance_id);
    assert_eq!(f64_field(&recovery_stats(server.addr()), "instances"), 1.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery re-parses every stored stream-create body, so a `"kernel"`
/// field an older client sent must still parse: streams created with the
/// retired `"blocked"` and with `"scalar"` come back with the digests
/// they had, the digest of a stream created without the field.
#[test]
fn streams_created_with_a_kernel_field_recover_from_the_wal() {
    let dir = temp_dir("kernel-field");
    let bodies = [
        r#"{"k": 2, "budget": 8, "kernel": "blocked"}"#,
        r#"{"k": 2, "budget": 8, "kernel": "scalar"}"#,
        r#"{"k": 2, "budget": 8}"#,
    ];
    let mut before = Vec::new();
    {
        let server = serve(durable_config(&dir, 0)).unwrap();
        for body in bodies {
            let (status, doc) = send(server.addr(), "POST", "/streams", body);
            assert_eq!(status, 201, "{body}: {}", doc.compact());
            let id = str_field(&doc, "id");
            let mut digest = String::new();
            for epoch in 1..=2 {
                digest = str_field(&push(server.addr(), &id, epoch), "digest");
            }
            before.push((id, digest));
        }
        server.shutdown();
    }

    let server = serve(durable_config(&dir, 0)).unwrap();
    assert_eq!(f64_field(&recovery_stats(server.addr()), "streams"), 3.0);
    for (body, (id, digest)) in bodies.iter().zip(&before) {
        let (status, doc) = get(server.addr(), &format!("/streams/{id}"));
        assert_eq!(status, 200, "{body}: {}", doc.compact());
        assert_eq!(&str_field(&doc, "digest"), digest, "{body}");
        assert_eq!(digest, &before[2].1, "{body}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With snapshots on, recovery replays only the WAL tail past the last
/// snapshot — `replayed_epochs` must come in under the epoch total.
#[test]
fn snapshots_bound_recovery_replay() {
    let dir = temp_dir("snapshot");
    let total_epochs = 5usize;
    let digest;
    let stream_id;
    {
        let server = serve(durable_config(&dir, 2)).unwrap();
        stream_id = create_stream(server.addr());
        let mut last = String::new();
        for epoch in 1..=total_epochs {
            last = str_field(&push(server.addr(), &stream_id, epoch), "digest");
        }
        digest = last;
        server.shutdown();
    }

    let server = serve(durable_config(&dir, 2)).unwrap();
    let (status, doc) = get(server.addr(), &format!("/streams/{stream_id}"));
    assert_eq!(status, 200);
    assert_eq!(str_field(&doc, "digest"), digest);
    assert_eq!(f64_field(&doc, "epochs"), total_epochs as f64);

    let recovery = recovery_stats(server.addr());
    assert_eq!(f64_field(&recovery, "snapshot_restores"), 1.0);
    let replayed = f64_field(&recovery, "replayed_epochs");
    assert!(
        replayed < total_epochs as f64,
        "snapshot did not shorten replay: {replayed} of {total_epochs} epochs"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn WAL tail (the crash left a partial record) is dropped —
/// surfaced in the recovery stats — and everything acknowledged before
/// it survives untouched.
#[test]
fn torn_wal_tail_is_dropped_not_fatal() {
    let dir = temp_dir("torn");
    let digest;
    let stream_id;
    {
        let server = serve(durable_config(&dir, 0)).unwrap();
        stream_id = create_stream(server.addr());
        push(server.addr(), &stream_id, 1);
        digest = str_field(&push(server.addr(), &stream_id, 2), "digest");
        server.shutdown();
    }
    // A 3-byte tail cannot hold a frame header: exactly what a crash
    // mid-append leaves behind.
    use std::io::Write;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal").join("streams.wal"))
        .unwrap();
    wal.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    drop(wal);

    let server = serve(durable_config(&dir, 0)).unwrap();
    let recovery = recovery_stats(server.addr());
    assert_eq!(
        recovery.get("torn_tail").and_then(|v| v.as_bool()),
        Some(true)
    );
    let (status, doc) = get(server.addr(), &format!("/streams/{stream_id}"));
    assert_eq!(status, 200);
    assert_eq!(str_field(&doc, "digest"), digest);
    assert_eq!(f64_field(&doc, "epochs"), 2.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// DELETE is durable too: tombstoned instances and deleted streams do
/// not resurrect on the next boot.
#[test]
fn deletes_survive_a_restart() {
    let dir = temp_dir("delete");
    let instance_id;
    let stream_id;
    {
        let server = serve(durable_config(&dir, 0)).unwrap();
        let (_, doc) = send(server.addr(), "POST", "/instances", &chunk_doc(0, 8));
        instance_id = str_field(&doc, "id");
        stream_id = create_stream(server.addr());
        push(server.addr(), &stream_id, 1);
        let (status, _) = send(
            server.addr(),
            "DELETE",
            &format!("/instances/{instance_id}"),
            "",
        );
        assert_eq!(status, 200);
        let (status, _) = send(
            server.addr(),
            "DELETE",
            &format!("/streams/{stream_id}"),
            "",
        );
        assert_eq!(status, 200);
        server.shutdown();
    }

    let server = serve(durable_config(&dir, 0)).unwrap();
    let (status, _) = get(server.addr(), &format!("/instances/{instance_id}"));
    assert_eq!(status, 404);
    let (status, _) = get(server.addr(), &format!("/streams/{stream_id}"));
    assert_eq!(status, 404);
    let recovery = recovery_stats(server.addr());
    assert_eq!(f64_field(&recovery, "instances"), 0.0);
    assert_eq!(f64_field(&recovery, "streams"), 0.0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-memory mode is byte-identical to the pre-persistence server: no
/// `durability` section in `/metrics`.
#[test]
fn in_memory_metrics_omit_the_durability_section() {
    let server = serve(ServerConfig::default()).unwrap();
    let (status, metrics) = get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.get("durability").is_none());
    server.shutdown();
}

/// Deleting an instance evicts its cached solutions (any config): a
/// re-uploaded identical instance starts cold, in-memory mode included.
#[test]
fn instance_delete_evicts_cached_solutions() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let instance = chunk_doc(0, 24);
    let (_, doc) = send(addr, "POST", "/instances", &instance);
    let id = str_field(&doc, "id");

    let solve = |expect_cached: bool, when: &str| {
        let (status, doc) = send(
            addr,
            "POST",
            &format!("/instances/{id}/solve"),
            r#"{"k": 2}"#,
        );
        assert_eq!(status, 200, "{when}: {}", doc.compact());
        assert_eq!(
            doc.get("cached").and_then(|v| v.as_bool()),
            Some(expect_cached),
            "{when}"
        );
    };
    solve(false, "first solve misses");
    solve(true, "second solve hits");

    let (status, _) = send(addr, "DELETE", &format!("/instances/{id}"), "");
    assert_eq!(status, 200);
    // Content-addressing gives the re-upload the same ID — without
    // eviction the stale entry would hit.
    let (_, doc) = send(addr, "POST", "/instances", &instance);
    assert_eq!(str_field(&doc, "id"), id);
    solve(false, "solve after delete + re-upload misses");
    server.shutdown();
}

/// Deleting a stream evicts the solutions cached for its current state:
/// an identical replacement stream (same digest) starts cold.
#[test]
fn stream_delete_evicts_cached_solutions() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let run = |expect_cached: bool| {
        let id = create_stream(addr);
        push(addr, &id, 1);
        let (status, doc) = get(addr, &format!("/streams/{id}/solution"));
        assert_eq!(status, 200, "{}", doc.compact());
        assert_eq!(
            doc.get("cached").and_then(|v| v.as_bool()),
            Some(expect_cached),
            "stream {id}"
        );
        // Reading an unchanged stream again is the cache's bread and
        // butter — always a hit.
        let (_, doc) = get(addr, &format!("/streams/{id}/solution"));
        assert_eq!(doc.get("cached").and_then(|v| v.as_bool()), Some(true));
        let (status, _) = send(addr, "DELETE", &format!("/streams/{id}"), "");
        assert_eq!(status, 200);
        id
    };
    let first = run(false);
    // Same feed, same digest; a hit here would mean delete left the
    // cache dirty.
    let second = run(false);
    assert_ne!(first, second);
    server.shutdown();
}
