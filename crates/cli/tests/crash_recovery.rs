//! Crash recovery against the real `ukc` binary: SIGKILL the serving
//! process mid-push (no graceful shutdown of any kind), restart it on
//! the same `--data-dir`, and verify the durability contract — every
//! *acknowledged* epoch is present and the recovered stream state is
//! bit-identical to a fresh replay of the same feed.
//!
//! Also pins the `--data-dir` startup validation: a file in the way or
//! an uncreatable path is a typed argument error and a clean non-zero
//! exit, printed before anything binds; and so is a flag the subcommand
//! does not read.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use ukc_json::Json;
use ukc_server::client;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ukc-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic chunk per epoch — the whole test leans on this:
/// replaying `chunk_doc(1..=e)` into any stream must reproduce the
/// digest the crashed server acked at epoch `e`.
fn chunk_doc(epoch: usize) -> String {
    let points: Vec<String> = (0..8)
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

fn parse(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON response {body:?}: {e}"))
}

fn str_field(doc: &Json, key: &str) -> String {
    doc.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("missing {key:?} in {}", doc.compact()))
        .to_string()
}

struct Server {
    child: Child,
    addr: SocketAddr,
    recovery_line: Option<String>,
}

/// Spawns `ukc serve --data-dir <dir>` on an ephemeral port and scrapes
/// the bound address (and any recovery report) off stderr.
fn spawn_server(dir: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ukc serve");
    let mut reader = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut recovery_line = None;
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read server stderr") == 0 {
            panic!("server exited before listening; last: {recovery_line:?}");
        }
        let line = line.trim();
        if line.starts_with("ukc-server recovered") {
            recovery_line = Some(line.to_string());
        } else if let Some(rest) = line.strip_prefix("ukc-server listening on ") {
            break rest.parse().expect("bound address parses");
        }
    };
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    Server {
        child,
        addr,
        recovery_line,
    }
}

#[test]
fn sigkill_mid_push_loses_no_acked_epoch() {
    let dir = temp_dir("sigkill");
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = spawn_server(&dir);
    let addr = server.addr;

    let created = client::request(addr, "POST", "/streams", Some(r#"{"k": 2, "budget": 8}"#))
        .expect("create stream");
    assert_eq!(created.status, 201, "{}", created.body);
    let id = str_field(&parse(&created.body), "id");

    // Push continuously from a side thread, recording the digest of
    // every *acked* epoch, while the main thread SIGKILLs the server
    // mid-flight.
    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let pusher = {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        let path = format!("/streams/{id}/push");
        std::thread::spawn(move || {
            for epoch in 1usize.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match client::request(addr, "POST", &path, Some(&chunk_doc(epoch))) {
                    Ok(r) if r.status == 200 => acked
                        .lock()
                        .unwrap()
                        .push(str_field(&parse(&r.body), "digest")),
                    // The kill landed: the in-flight push died unacked.
                    _ => break,
                }
            }
        })
    };
    while acked.lock().unwrap().len() < 5 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.child.kill().expect("SIGKILL server");
    server.child.wait().expect("reap server");
    stop.store(true, Ordering::Relaxed);
    pusher.join().unwrap();
    let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();

    let mut server = spawn_server(&dir);
    let addr = server.addr;
    assert!(
        server
            .recovery_line
            .as_deref()
            .is_some_and(|l| l.contains("1 stream(s)")),
        "restart did not report recovery: {:?}",
        server.recovery_line
    );

    // Every acked epoch survived; at most the one in-flight unacked
    // push may additionally have reached the WAL before the kill.
    let got = client::request(addr, "GET", &format!("/streams/{id}"), None).unwrap();
    assert_eq!(got.status, 200, "{}", got.body);
    let doc = parse(&got.body);
    let recovered_digest = str_field(&doc, "digest");
    let epochs = doc.get("epochs").and_then(|v| v.as_f64()).unwrap() as usize;
    assert!(
        epochs >= acked.len(),
        "acked {} epochs but only {epochs} recovered",
        acked.len()
    );
    assert!(epochs <= acked.len() + 1, "recovered unexplained epochs");

    // Bit-identity: replay the same deterministic feed into a fresh
    // stream on the recovered server; digests must match ack-for-ack,
    // and land exactly on the recovered stream's state.
    let control = client::request(addr, "POST", "/streams", Some(r#"{"k": 2, "budget": 8}"#))
        .expect("create control stream");
    let control_id = str_field(&parse(&control.body), "id");
    let mut last = String::new();
    for epoch in 1..=epochs {
        let r = client::request(
            addr,
            "POST",
            &format!("/streams/{control_id}/push"),
            Some(&chunk_doc(epoch)),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        last = str_field(&parse(&r.body), "digest");
        if epoch <= acked.len() {
            assert_eq!(last, acked[epoch - 1], "replay diverged at epoch {epoch}");
        }
    }
    assert_eq!(
        last, recovered_digest,
        "recovered state is not the feed's fold"
    );

    server.child.kill().expect("kill server");
    server.child.wait().expect("reap server");
    let _ = std::fs::remove_dir_all(&dir);
}

fn serve_output(data_dir: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .args(extra)
        .output()
        .expect("run ukc serve")
}

#[test]
fn data_dir_pointing_at_a_file_is_a_clean_typed_error() {
    let dir = temp_dir("badpath");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();

    let out = serve_output(&file, &[]);
    assert_eq!(out.status.code(), Some(1), "expected a clean exit(1)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--data-dir") && stderr.contains("exists but is not a directory"),
        "untyped error: {stderr}"
    );
    assert!(
        !stderr.contains("listening"),
        "server bound anyway: {stderr}"
    );

    // A path nested under that file can never become a directory.
    let out = serve_output(&file.join("sub"), &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot be created as a directory"),
        "untyped error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_interval_without_data_dir_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot-interval", "4"])
        .output()
        .expect("run ukc serve");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--snapshot-interval is only meaningful with --data-dir"),
        "{stderr}"
    );
}

#[test]
fn serve_takes_no_default_kernel() {
    let out = Command::new(env!("CARGO_BIN_EXE_ukc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--kernel", "scalar"])
        .output()
        .expect("run ukc serve");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --kernel"), "{stderr}");
    assert!(
        !stderr.contains("listening"),
        "server bound anyway: {stderr}"
    );
}

#[test]
fn solve_refuses_flags_it_does_not_read() {
    // A typo'd flag used to run the default solver and exit 0. The check
    // runs before the instance is read, so no instance file is needed.
    for flag in ["slover", "kernel"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ukc"))
            .args([
                "solve",
                "--instance",
                "t.json",
                "--k",
                "2",
                &format!("--{flag}"),
                "grid",
            ])
            .output()
            .expect("run ukc solve");
        assert_eq!(out.status.code(), Some(1), "--{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option --{flag}")),
            "{stderr}"
        );
    }
}
