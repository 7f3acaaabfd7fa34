//! Integration coverage for the `ukc-server` HTTP protocol.
//!
//! Binds a real server on an ephemeral loopback port and exercises every
//! endpoint over actual TCP: the happy paths, malformed JSON, unknown
//! instance IDs, oversized bodies, typed error payloads, the solution
//! cache (asserted via the `/metrics` hit counter), and bit-identity of
//! concurrently served solves against direct `Problem::solve` calls.

use std::net::SocketAddr;

use ukc_core::{Problem, SolverConfig};
use ukc_json::format::JsonInstance;
use ukc_json::Json;
use ukc_metric::Point;
use ukc_server::client::{self, HttpResponse};
use ukc_server::{serve, ServerConfig};
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::UncertainSet;

fn start(config: ServerConfig) -> (ukc_server::ServerHandle, SocketAddr) {
    let handle = serve(config).expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

fn small_set(seed: u64) -> UncertainSet<Point> {
    clustered(seed, 14, 3, 2, 2, 5.0, 1.0, ProbModel::Random)
}

fn instance_body(seed: u64) -> String {
    JsonInstance::from_set(&small_set(seed)).to_json().compact()
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    client::request(addr, "GET", path, None).expect("request")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> HttpResponse {
    client::request(addr, "POST", path, Some(body)).expect("request")
}

fn parse(response: &HttpResponse) -> Json {
    Json::parse(&response.body).unwrap_or_else(|e| panic!("non-JSON body ({e}): {}", response.body))
}

/// The typed error payload: `{"error": {"status", "kind", "message"}}`.
fn error_kind(response: &HttpResponse) -> (f64, String) {
    let doc = parse(response);
    let err = doc.get("error").expect("error object");
    (
        err.get("status").and_then(Json::as_f64).expect("status"),
        err.get("kind")
            .and_then(Json::as_str)
            .expect("kind")
            .to_string(),
    )
}

fn metric(addr: SocketAddr, path: &[&str]) -> f64 {
    let doc = parse(&get(addr, "/metrics"));
    let mut node = &doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    node.as_f64().expect("numeric metric")
}

#[test]
fn healthz_and_metrics_respond() {
    let (handle, addr) = start(ServerConfig::default());
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let doc = parse(&health);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert!(doc.get("uptime_seconds").and_then(Json::as_f64).is_some());

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let doc = parse(&metrics);
    for section in [
        "requests",
        "responses",
        "cache",
        "scheduler",
        "solves",
        "pool",
    ] {
        assert!(doc.get(section).is_some(), "missing {section}");
    }
    handle.shutdown();
}

/// `/metrics` exposes the shared worker pool's occupancy gauges
/// (workers, busy, queued chunks, lifetime tasks/chunks, waves run on
/// the pool), the worker gauge matches the process-wide pool, and the
/// lifetime counters are monotone across a served solve.
#[test]
fn pool_gauges_are_exported_and_monotone() {
    let (handle, addr) = start(ServerConfig::default());
    for gauge in [
        "workers",
        "busy",
        "queued_chunks",
        "tasks",
        "chunks",
        "waves",
    ] {
        assert!(metric(addr, &["pool", gauge]) >= 0.0, "{gauge}");
    }
    // The worker gauge reflects the process-wide pool (lanes - 1).
    assert_eq!(
        metric(addr, &["pool", "workers"]),
        ukc_pool::global().workers() as f64
    );
    let tasks_before = metric(addr, &["pool", "tasks"]);
    let chunks_before = metric(addr, &["pool", "chunks"]);
    let body = format!(
        r#"{{"k": 2, "instance": {}}}"#,
        instance_body(11).trim_end()
    );
    assert_eq!(post(addr, "/solve", &body).status, 200);
    assert!(metric(addr, &["pool", "tasks"]) >= tasks_before);
    assert!(metric(addr, &["pool", "chunks"]) >= chunks_before);
    handle.shutdown();
}

#[test]
fn instance_lifecycle_upload_dedupe_get_list_delete() {
    let (handle, addr) = start(ServerConfig::default());

    // Upload creates.
    let created = post(addr, "/instances", &instance_body(1));
    assert_eq!(created.status, 201);
    let doc = parse(&created);
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string();
    assert_eq!(doc.get("created").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("n").and_then(Json::as_usize), Some(14));

    // An identical upload (here: points in reverse order) dedupes to the
    // same content ID with 200, not 201.
    let mut points = small_set(1).points().to_vec();
    points.reverse();
    let permuted = JsonInstance::from_set(&UncertainSet::new(points))
        .to_json()
        .compact();
    let deduped = post(addr, "/instances", &permuted);
    assert_eq!(deduped.status, 200);
    let doc = parse(&deduped);
    assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
    assert_eq!(doc.get("created").and_then(Json::as_bool), Some(false));

    // A different instance gets a different ID.
    let other = post(addr, "/instances", &instance_body(2));
    assert_eq!(other.status, 201);
    let other_id = parse(&other)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_ne!(other_id, id);

    // List shows both, sorted by ID.
    let list = parse(&get(addr, "/instances"));
    let items = list.get("instances").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 2);
    let ids: Vec<&str> = items
        .iter()
        .map(|i| i.get("id").and_then(Json::as_str).unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted);

    // Get returns the full instance document, which round-trips.
    let fetched = get(addr, &format!("/instances/{id}"));
    assert_eq!(fetched.status, 200);
    let doc = parse(&fetched);
    let instance = doc.get("instance").expect("instance document");
    let roundtrip = JsonInstance::from_json(instance).unwrap().to_set().unwrap();
    assert_eq!(roundtrip.n(), 14);

    // Delete removes exactly once.
    let deleted = client::request(addr, "DELETE", &format!("/instances/{id}"), None).unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(
        parse(&deleted).get("deleted").and_then(Json::as_bool),
        Some(true)
    );
    let again = client::request(addr, "DELETE", &format!("/instances/{id}"), None).unwrap();
    assert_eq!(again.status, 404);
    assert_eq!(get(addr, &format!("/instances/{id}")).status, 404);

    handle.shutdown();
}

#[test]
fn typed_errors_cover_the_failure_matrix() {
    let (handle, addr) = start(ServerConfig {
        max_body_bytes: 4096,
        ..ServerConfig::default()
    });

    // Malformed JSON → 400 bad_json.
    let r = post(addr, "/instances", "{not json");
    assert_eq!(error_kind(&r), (400.0, "bad_json".into()));

    // Schema violation → 400 bad_schema.
    let r = post(addr, "/instances", r#"{"points": []}"#);
    assert_eq!(error_kind(&r), (400.0, "bad_schema".into()));

    // Valid JSON, invalid instance → 422 bad_instance.
    let r = post(
        addr,
        "/instances",
        r#"{"dim": 2, "points": [{"locations": [[1]], "probs": [1]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_instance".into()));

    // Unknown instance ID → 404 instance_not_found, on get and solve.
    let r = get(addr, "/instances/ffffffffffffffff");
    assert_eq!(error_kind(&r), (404.0, "instance_not_found".into()));
    let r = post(addr, "/instances/ffffffffffffffff/solve", r#"{"k": 2}"#);
    assert_eq!(error_kind(&r), (404.0, "instance_not_found".into()));

    // Unknown route → 404 route_not_found; wrong method → 405.
    let r = get(addr, "/nope");
    assert_eq!(error_kind(&r), (404.0, "route_not_found".into()));
    let r = post(addr, "/healthz", "{}");
    assert_eq!(error_kind(&r), (405.0, "method_not_allowed".into()));

    // Oversized body → 413 payload_too_large.
    let huge = format!(r#"{{"dim": 2, "points": [{}]}}"#, "x".repeat(8192));
    let r = post(addr, "/instances", &huge);
    assert_eq!(error_kind(&r), (413.0, "payload_too_large".into()));

    // SolveError variants surface with their own kinds.
    let upload = parse(&post(addr, "/instances", &instance_body(3)));
    let id = upload.get("id").and_then(Json::as_str).unwrap();
    let r = post(addr, &format!("/instances/{id}/solve"), r#"{"k": 0}"#);
    assert_eq!(error_kind(&r), (422.0, "zero_k".into()));
    let r = post(addr, &format!("/instances/{id}/solve"), r#"{"k": 500}"#);
    assert_eq!(error_kind(&r), (422.0, "k_exceeds_n".into()));
    let r = post(
        addr,
        &format!("/instances/{id}/solve"),
        r#"{"k": 2, "eps": -0.5}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_epsilon".into()));
    let r = post(
        addr,
        &format!("/instances/{id}/solve"),
        r#"{"k": 2, "slover": "grid"}"#,
    );
    assert_eq!(error_kind(&r), (400.0, "unknown_field".into()));

    handle.shutdown();
}

/// Regression: payloads whose numbers parse to non-finite floats (JSON
/// `1e999` → +∞) or whose locations are empty used to reach the panicking
/// `Point` constructor and kill the worker thread mid-request. All of
/// them must now come back as typed 422s — and the server must stay up.
#[test]
fn non_finite_and_empty_coordinates_are_422_not_panics() {
    let (handle, addr) = start(ServerConfig::default());

    // 1e999 overflows f64 to +∞: rejected as a bad instance.
    let r = post(
        addr,
        "/instances",
        r#"{"dim": 1, "points": [{"locations": [[1e999]], "probs": [1]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_instance".into()));

    // Same payload inline through the one-shot endpoint.
    let r = post(
        addr,
        "/solve",
        r#"{"k": 1, "instance": {"dim": 1, "points": [{"locations": [[-1e999]], "probs": [1]}]}}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_instance".into()));

    // NaN-producing probability (∞ is not a valid probability either).
    let r = post(
        addr,
        "/instances",
        r#"{"dim": 1, "points": [{"locations": [[0]], "probs": [1e999]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_instance".into()));

    // dim-0 instance with an empty location: previously panicked inside
    // `Point::new` on the worker thread (connection dropped); now a 422.
    let r = post(
        addr,
        "/instances",
        r#"{"dim": 0, "points": [{"locations": [[]], "probs": [1]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "bad_instance".into()));

    // The server survived all of the above and still solves.
    let r = post(
        addr,
        "/solve",
        &format!(r#"{{"k": 2, "instance": {}}}"#, instance_body(9)),
    );
    assert_eq!(r.status, 200);

    handle.shutdown();
}

/// Regression: a finite coordinate whose square overflows (`1e155`) used
/// to panic inside the solve: the wave answered `500 internal`, and a
/// leave-one-out sweep panicked on its connection thread. The instance
/// uploads, and every solve of it is a typed 422.
#[test]
fn coordinates_whose_squares_overflow_are_422_not_500() {
    let (handle, addr) = start(ServerConfig::default());
    let far = r#"{"dim": 2, "points": [
        {"locations": [[0, 0]], "probs": [1]},
        {"locations": [[1e155, 1], [2, 1]], "probs": [0.5, 0.5]},
        {"locations": [[3, 3]], "probs": [1]}]}"#;
    let r = post(addr, "/instances", far);
    assert_eq!(r.status, 201, "{}", r.body);
    let id = parse(&r)
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string();
    let too_large = (422.0, "coordinates_too_large".to_string());
    for route in ["solve", "solve_loo"] {
        let r = post(addr, &format!("/instances/{id}/{route}"), r#"{"k": 1}"#);
        assert_eq!(error_kind(&r), too_large, "{route}: {}", r.body);
    }
    let r = post(addr, "/solve", &format!(r#"{{"k": 1, "instance": {far}}}"#));
    assert_eq!(error_kind(&r), too_large);

    // Nothing panicked, and the server still solves.
    assert_eq!(metric(addr, &["scheduler", "panicked_jobs"]), 0.0);
    let r = post(
        addr,
        "/solve",
        &format!(r#"{{"k": 2, "instance": {}}}"#, instance_body(9)),
    );
    assert_eq!(r.status, 200);

    handle.shutdown();
}

#[test]
fn repeated_solves_hit_the_cache_and_report_it() {
    let (handle, addr) = start(ServerConfig::default());
    let upload = parse(&post(addr, "/instances", &instance_body(4)));
    let id = upload.get("id").and_then(Json::as_str).unwrap().to_string();

    assert_eq!(metric(addr, &["cache", "hits"]), 0.0);
    let body = r#"{"k": 3, "rule": "ep"}"#;

    let first = post(addr, &format!("/instances/{id}/solve"), body);
    assert_eq!(first.status, 200);
    let first_doc = parse(&first);
    assert_eq!(first_doc.get("cached").and_then(Json::as_bool), Some(false));
    // The reported digest is the instance's store ID (not a k-dependent
    // problem digest), so clients can cross-reference it.
    assert_eq!(
        first_doc.get("instance_digest").and_then(Json::as_str),
        Some(id.as_str())
    );

    let second = post(addr, &format!("/instances/{id}/solve"), body);
    let second_doc = parse(&second);
    assert_eq!(second_doc.get("cached").and_then(Json::as_bool), Some(true));

    // The acceptance criterion: the second identical solve is a cache
    // hit, visible in /metrics.
    assert_eq!(metric(addr, &["cache", "hits"]), 1.0);
    assert_eq!(metric(addr, &["cache", "misses"]), 1.0);
    assert_eq!(metric(addr, &["solves", "ok"]), 1.0);

    // The cached response carries the same solution bits.
    for key in ["ecost", "certain_radius"] {
        assert_eq!(
            first_doc.get(key).and_then(Json::as_f64),
            second_doc.get(key).and_then(Json::as_f64),
            "{key}"
        );
    }
    assert_eq!(
        first_doc.get("centers").unwrap(),
        second_doc.get("centers").unwrap()
    );
    assert_eq!(
        first_doc.get("assignment").unwrap(),
        second_doc.get("assignment").unwrap()
    );

    // A different config is a different cache key.
    let third = post(
        addr,
        &format!("/instances/{id}/solve"),
        r#"{"k": 3, "rule": "ed"}"#,
    );
    assert_eq!(
        parse(&third).get("cached").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(metric(addr, &["cache", "misses"]), 2.0);

    // `"cache": false` bypasses without recording a hit.
    let bypass = post(
        addr,
        &format!("/instances/{id}/solve"),
        r#"{"k": 3, "rule": "ep", "cache": false}"#,
    );
    assert_eq!(
        parse(&bypass).get("cached").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(metric(addr, &["cache", "hits"]), 1.0);

    handle.shutdown();
}

#[test]
fn retired_blocked_kernel_name_shares_the_tiled_cache_entry() {
    let (handle, addr) = start(ServerConfig::default());
    let upload = parse(&post(addr, "/instances", &instance_body(5)));
    let id = upload.get("id").and_then(Json::as_str).unwrap().to_string();
    let path = format!("/instances/{id}/solve");

    let blocked = post(addr, &path, r#"{"k": 3, "kernel": "blocked"}"#);
    assert_eq!(blocked.status, 200, "{}", blocked.body);
    let tiled = post(addr, &path, r#"{"k": 3, "kernel": "tiled"}"#);
    assert_eq!(tiled.status, 200, "{}", tiled.body);
    let cached = |r: &HttpResponse| parse(r).get("cached").and_then(Json::as_bool);
    assert_eq!(
        (cached(&blocked), cached(&tiled)),
        (Some(false), Some(true))
    );
    assert_eq!(metric(addr, &["cache", "hits"]), 1.0);
    // Apart from the "cached" flag, the hit is the miss byte for byte.
    let hit = blocked
        .body
        .replacen("\"cached\": false", "\"cached\": true", 1);
    assert_eq!(hit, tiled.body);
    // The solve is counted under the kernel it ran, never under "blocked".
    assert_eq!(
        metric(addr, &["solves", "by_kernel", "tiled", "count"]),
        1.0
    );

    handle.shutdown();
}

/// The kernel is a speed hint that never changes a response byte, so it
/// is not part of the cache key: a tiled solve hits the scalar solve's
/// entry, and an uncached tiled solve renders the same solution.
#[test]
fn kernels_share_the_solution_cache() {
    let (handle, addr) = start(ServerConfig::default());
    let id = upload(addr, 5);
    let path = format!("/instances/{id}/solve");
    let scalar = post(addr, &path, r#"{"k": 3, "kernel": "scalar"}"#);
    let tiled = post(addr, &path, r#"{"k": 3, "kernel": "tiled"}"#);
    assert_eq!(tiled.status, 200, "{}", tiled.body);
    assert_eq!(
        parse(&tiled).get("cached").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(as_hit(&scalar), tiled.body);
    let fresh = parse(&post(
        addr,
        &path,
        r#"{"k": 3, "kernel": "tiled", "cache": false}"#,
    ));
    let scalar = parse(&scalar);
    for field in [
        "centers",
        "assignment",
        "ecost",
        "certain_radius",
        "lower_bound",
    ] {
        assert!(fresh.get(field).is_some(), "{field}");
        assert_eq!(
            fresh.get(field).map(Json::compact),
            scalar.get(field).map(Json::compact),
            "{field}"
        );
    }
    handle.shutdown();
}

fn upload(addr: SocketAddr, seed: u64) -> String {
    let upload = parse(&post(addr, "/instances", &instance_body(seed)));
    upload.get("id").and_then(Json::as_str).unwrap().to_string()
}

/// What every hit on a miss's key must answer: the miss's bytes with
/// only `"cached"` flipped.
fn as_hit(miss: &HttpResponse) -> String {
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert_eq!(miss.body.matches("\"cached\": false").count(), 1);
    miss.body
        .replacen("\"cached\": false", "\"cached\": true", 1)
}

/// One miss, then three hits that must each be [`as_hit`] of it.
fn miss_then_three_hits(addr: SocketAddr, path: &str, body: &str) -> String {
    let expected = as_hit(&post(addr, path, body));
    for round in 0..3 {
        let hit = post(addr, path, body);
        assert_eq!(hit.status, 200, "{}", hit.body);
        assert_eq!(hit.body, expected, "hit {round} on {path}");
    }
    expected
}

#[test]
fn cache_hits_repeat_the_miss_bytes_with_only_cached_flipped() {
    let (handle, addr) = start(ServerConfig::default());
    let id = upload(addr, 31);

    let cold = miss_then_three_hits(addr, &format!("/instances/{id}/solve"), r#"{"k": 3}"#);
    assert_eq!(metric(addr, &["cache", "hits"]), 3.0);

    // A warm `?base=` key: the grown instance solved from its parent.
    let grown = parse(&post(
        addr,
        &format!("/instances/{id}/append"),
        &instance_body(32),
    ));
    let grown_id = grown.get("id").and_then(Json::as_str).unwrap();
    let warm = miss_then_three_hits(
        addr,
        &format!("/instances/{grown_id}/solve?base={id}"),
        r#"{"k": 3}"#,
    );
    let warm_doc = Json::parse(&warm).unwrap();
    assert_eq!(
        warm_doc.get("base").and_then(Json::as_str),
        Some(id.as_str())
    );

    // `POST /solve`, cold and warm.
    let oneshot = format!(r#"{{"k": 2, "instance": {}}}"#, instance_body(33));
    miss_then_three_hits(addr, "/solve", &oneshot);
    let oneshot_warm = format!(r#"{{"k": 3, "instance": {}}}"#, instance_body(34));
    miss_then_three_hits(addr, &format!("/solve?base={id}"), &oneshot_warm);

    // An inline copy of the stored instance shares its key, and so the
    // body the instance route's hits answer with.
    let inline = format!(r#"{{"k": 3, "instance": {}}}"#, instance_body(31));
    assert_eq!(post(addr, "/solve", &inline).body, cold);

    assert_eq!(metric(addr, &["cache", "misses"]), 4.0);
    assert_eq!(metric(addr, &["cache", "hits"]), 13.0);
    handle.shutdown();
}

/// A solve body without `report.timings_seconds`, the only bytes two
/// solves of one key may differ in.
fn without_timings(body: &str) -> String {
    let mut doc = Json::parse(body).unwrap();
    if let Json::Obj(pairs) = &mut doc {
        for (key, value) in pairs {
            if let (true, Json::Obj(report)) = (key == "report", value) {
                report.retain(|(key, _)| key != "timings_seconds");
            }
        }
    }
    doc.pretty()
}

#[test]
fn deleted_or_evicted_entries_miss_then_answer_the_same_bytes() {
    let (handle, addr) = start(ServerConfig {
        cache_cap: 1,
        ..ServerConfig::default()
    });
    let id = upload(addr, 35);
    let path = format!("/instances/{id}/solve");
    let body = r#"{"k": 3}"#;
    let first = without_timings(&miss_then_three_hits(addr, &path, body));

    // Delete and re-upload: the entry went with the instance.
    let deleted = client::request(addr, "DELETE", &format!("/instances/{id}"), None).unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(upload(addr, 35), id);
    let refilled = miss_then_three_hits(addr, &path, body);
    assert_eq!(without_timings(&refilled), first);

    // At capacity 1 another key evicts the entry, so the next request
    // misses, and the new entry's hits render the same document.
    assert_eq!(
        parse(&post(addr, &path, r#"{"k": 2}"#))
            .get("cached")
            .and_then(Json::as_bool),
        Some(false)
    );
    let rerendered = miss_then_three_hits(addr, &path, body);
    assert_eq!(without_timings(&rerendered), first);

    assert_eq!(metric(addr, &["cache", "misses"]), 4.0);
    assert_eq!(metric(addr, &["cache", "hits"]), 9.0);
    handle.shutdown();
}

/// `/metrics` `prepared` sums the stored instances' solve-ready layouts:
/// none at upload, one built by the first solve and shared by a solve at
/// another `k`, and none once the instance is deleted.
#[test]
fn prepared_layouts_are_built_once_per_stored_instance_and_go_with_it() {
    let (handle, addr) = start(ServerConfig::default());
    let id = upload(addr, 36);
    assert_eq!(metric(addr, &["prepared", "sets"]), 0.0);
    assert_eq!(metric(addr, &["prepared", "bytes"]), 0.0);

    let path = format!("/instances/{id}/solve");
    assert_eq!(post(addr, &path, r#"{"k": 3}"#).status, 200);
    let bytes = metric(addr, &["prepared", "bytes"]);
    assert!(bytes > 0.0);
    assert_eq!(metric(addr, &["prepared", "sets"]), 1.0);
    assert_eq!(post(addr, &path, r#"{"k": 5}"#).status, 200);
    assert_eq!(metric(addr, &["prepared", "bytes"]), bytes);
    assert_eq!(metric(addr, &["prepared", "sets"]), 1.0);

    let deleted = client::request(addr, "DELETE", &format!("/instances/{id}"), None).unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(metric(addr, &["prepared", "sets"]), 0.0);
    assert_eq!(metric(addr, &["prepared", "bytes"]), 0.0);
    handle.shutdown();
}

#[test]
fn concurrent_solves_are_bit_identical_to_sequential() {
    let (handle, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // Upload several distinct instances, then solve them all at once
    // from parallel client threads (they coalesce into scheduler waves).
    let seeds: Vec<u64> = (10..18).collect();
    let mut ids = Vec::new();
    for &seed in &seeds {
        let doc = parse(&post(addr, "/instances", &instance_body(seed)));
        ids.push(doc.get("id").and_then(Json::as_str).unwrap().to_string());
    }

    let mut threads = Vec::new();
    for (seed, id) in seeds.iter().copied().zip(ids.iter().cloned()) {
        threads.push(std::thread::spawn(move || {
            let r = client::request(
                addr,
                "POST",
                &format!("/instances/{id}/solve"),
                Some(r#"{"k": 3, "cache": false}"#),
            )
            .unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            (seed, Json::parse(&r.body).unwrap())
        }));
    }

    let config = SolverConfig::default();
    for thread in threads {
        let (seed, served) = thread.join().unwrap();
        // The expected side must see the same bytes the server saw: the
        // upload round-trips through JSON, whose probability
        // re-normalization can shift an ulp vs. the generator's set.
        let uploaded = JsonInstance::parse(&instance_body(seed))
            .unwrap()
            .to_set()
            .unwrap();
        let expected = Problem::euclidean(uploaded, 3)
            .unwrap()
            .solve(&config)
            .unwrap();
        // Bit-identical payload: exact float equality after the f64 →
        // shortest-round-trip-JSON → f64 round trip, which is lossless.
        assert_eq!(
            served
                .get("ecost")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            expected.ecost.to_bits(),
            "seed {seed}"
        );
        let centers = served.get("centers").and_then(Json::as_array).unwrap();
        assert_eq!(centers.len(), expected.centers.len());
        for (center, exp) in centers.iter().zip(&expected.centers) {
            let coords: Vec<f64> = center
                .as_array()
                .unwrap()
                .iter()
                .map(|c| c.as_f64().unwrap())
                .collect();
            assert_eq!(coords, exp.coords());
        }
        let assignment: Vec<usize> = served
            .get("assignment")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|a| a.as_usize().unwrap())
            .collect();
        assert_eq!(assignment, expected.assignment);
    }

    // The wave machinery actually ran, and its histograms saw every
    // job and every wave; no more waves than workers were in flight.
    let waves = metric(addr, &["scheduler", "waves"]);
    assert!(waves >= 1.0);
    assert_eq!(
        metric(addr, &["scheduler", "wave_jobs"]),
        seeds.len() as f64
    );
    assert_eq!(
        metric(addr, &["scheduler", "queue_wait_ms", "count"]),
        seeds.len() as f64
    );
    assert_eq!(metric(addr, &["scheduler", "wave_size", "count"]), waves);
    for q in ["p50", "p95", "p99"] {
        assert!(metric(addr, &["scheduler", "queue_wait_ms", q]) >= 0.0);
        assert!(metric(addr, &["scheduler", "wave_size", q]) >= 1.0);
    }
    let in_flight_max = metric(addr, &["scheduler", "in_flight_max"]);
    assert!((1.0..=2.0).contains(&in_flight_max), "{in_flight_max}");
    assert_eq!(metric(addr, &["scheduler", "panicked_jobs"]), 0.0);
    handle.shutdown();
}

/// Reads from a raw socket until `needle` has arrived; returns all of it.
fn read_until(stream: &mut std::net::TcpStream, needle: &str) -> String {
    use std::io::Read;
    let mut seen = Vec::new();
    let mut buf = [0u8; 4096];
    while !String::from_utf8_lossy(&seen).contains(needle) {
        let n = stream.read(&mut buf).expect("read");
        assert!(
            n > 0,
            "closed before {needle:?}: {}",
            String::from_utf8_lossy(&seen)
        );
        seen.extend_from_slice(&buf[..n]);
    }
    String::from_utf8(seen).unwrap()
}

/// `Expect: 100-continue` gets the interim line once the headers are
/// read and the declared length fits; the body is only sent after it.
/// An oversized declaration gets the typed 413 without any body byte.
#[test]
fn expect_100_continue_is_answered_before_the_body() {
    use std::io::Write;
    let (handle, addr) = start(ServerConfig {
        max_body_bytes: 4096,
        ..ServerConfig::default()
    });
    let timeout = Some(std::time::Duration::from_secs(10));

    let body = instance_body(3);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(timeout).unwrap();
    write!(
        stream,
        "POST /instances HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    let interim = read_until(&mut stream, "\r\n\r\n");
    assert_eq!(interim, "HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).unwrap();
    let response = read_until(&mut stream, "\"created\"");
    assert!(response.starts_with("HTTP/1.1 201 "), "{response}");

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(timeout).unwrap();
    write!(
        stream,
        "POST /instances HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
         Content-Length: 99999\r\n\r\n"
    )
    .unwrap();
    let response = read_until(&mut stream, "payload_too_large");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    assert!(!response.contains("100 Continue"), "{response}");
    drop(stream);
    handle.shutdown();
}

#[test]
fn oneshot_solve_and_keep_alive_sessions() {
    let (handle, addr) = start(ServerConfig::default());

    // One-shot with an inline instance.
    let body = format!(
        r#"{{"k": 2, "solver": "local-search", "rounds": 4, "instance": {}}}"#,
        instance_body(6)
    );
    let r = post(addr, "/solve", &body);
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = parse(&r);
    assert!(doc.get("report").is_some());
    assert_eq!(
        doc.get("method").and_then(Json::as_str),
        Some("euclidean/ep/gonzalez+local-search")
    );

    // A second identical one-shot hits the cache too: content digests
    // make inline and stored instances share identity.
    let r = post(addr, "/solve", &body);
    assert_eq!(parse(&r).get("cached").and_then(Json::as_bool), Some(true));

    // Many requests on one keep-alive connection.
    let mut conn = client::ClientConn::connect(addr).unwrap();
    for _ in 0..3 {
        let r = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
    }
    let r = conn.request("POST", "/solve", Some(&body)).unwrap();
    assert_eq!(r.status, 200);

    handle.shutdown();
}

#[test]
fn append_grows_an_instance_under_a_new_content_id() {
    let (handle, addr) = start(ServerConfig::default());
    let upload = parse(&post(addr, "/instances", &instance_body(21)));
    let id = upload.get("id").and_then(Json::as_str).unwrap().to_string();

    // Append a second batch: the grown instance gets its own digest ID;
    // the original stays stored and solvable.
    let grown = post(addr, &format!("/instances/{id}/append"), &instance_body(22));
    assert_eq!(grown.status, 201, "{}", grown.body);
    let doc = parse(&grown);
    let new_id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_ne!(new_id, id);
    assert_eq!(
        doc.get("previous_id").and_then(Json::as_str),
        Some(id.as_str())
    );
    assert_eq!(doc.get("appended").and_then(Json::as_usize), Some(14));
    assert_eq!(doc.get("n").and_then(Json::as_usize), Some(28));
    assert_eq!(get(addr, &format!("/instances/{id}")).status, 200);
    assert_eq!(get(addr, &format!("/instances/{new_id}")).status, 200);

    // Appending the same batch again deduplicates onto the same grown ID.
    let again = post(addr, &format!("/instances/{id}/append"), &instance_body(22));
    assert_eq!(again.status, 200);
    assert_eq!(
        parse(&again).get("id").and_then(Json::as_str),
        Some(new_id.as_str())
    );

    // Typed failures: unknown base instance, mismatched dimension.
    let r = post(
        addr,
        "/instances/ffffffffffffffff/append",
        &instance_body(22),
    );
    assert_eq!(error_kind(&r), (404.0, "instance_not_found".into()));
    let r = post(
        addr,
        &format!("/instances/{id}/append"),
        r#"{"dim": 3, "points": [{"locations": [[0, 1, 2]], "probs": [1]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "dimension_mismatch".into()));

    handle.shutdown();
}

#[test]
fn stream_lifecycle_push_solution_and_digest_keyed_caching() {
    let (handle, addr) = start(ServerConfig::default());

    // Create a stream; server-assigned ID, echoed configuration.
    let created = post(addr, "/streams", r#"{"k": 3, "rule": "ep", "budget": 12}"#);
    assert_eq!(created.status, 201, "{}", created.body);
    let doc = parse(&created);
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(doc.get("k").and_then(Json::as_usize), Some(3));
    assert_eq!(doc.get("budget").and_then(Json::as_usize), Some(12));
    assert_eq!(doc.get("points_seen").and_then(Json::as_f64), Some(0.0));

    // Push two chunks (= two epochs); the digest evolves.
    let push1 = parse(&post(
        addr,
        &format!("/streams/{id}/push"),
        &instance_body(31),
    ));
    assert_eq!(push1.get("epoch").and_then(Json::as_f64), Some(1.0));
    assert_eq!(push1.get("points_seen").and_then(Json::as_f64), Some(14.0));
    let digest1 = push1
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let push2 = parse(&post(
        addr,
        &format!("/streams/{id}/push"),
        &instance_body(32),
    ));
    assert_eq!(push2.get("epoch").and_then(Json::as_f64), Some(2.0));
    let digest2 = push2
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_ne!(digest1, digest2);
    let summary_size = push2.get("summary_size").and_then(Json::as_usize).unwrap();
    assert!(summary_size <= 12);

    // Solutions run through the scheduler and cache on the digest:
    // unchanged stream -> second read is a cache hit.
    let hits_before = metric(addr, &["cache", "hits"]);
    let sol1 = get(addr, &format!("/streams/{id}/solution"));
    assert_eq!(sol1.status, 200, "{}", sol1.body);
    let sol1 = parse(&sol1);
    assert_eq!(sol1.get("cached").and_then(Json::as_bool), Some(false));
    let stream_meta = sol1.get("stream").expect("stream metadata");
    assert_eq!(
        stream_meta.get("digest").and_then(Json::as_str),
        Some(digest2.as_str())
    );
    assert_eq!(
        stream_meta.get("points_seen").and_then(Json::as_f64),
        Some(28.0)
    );
    let radius_bound = stream_meta
        .get("radius_bound")
        .and_then(Json::as_f64)
        .unwrap();
    let certain_radius = sol1.get("certain_radius").and_then(Json::as_f64).unwrap();
    assert!(radius_bound >= certain_radius);
    let centers = sol1.get("centers").and_then(Json::as_array).unwrap();
    assert!(centers.len() <= 3);

    let sol2 = parse(&get(addr, &format!("/streams/{id}/solution")));
    assert_eq!(sol2.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(metric(addr, &["cache", "hits"]), hits_before + 1.0);
    assert_eq!(sol1.get("centers").unwrap(), sol2.get("centers").unwrap());

    // A push invalidates by construction: the digest changed, so the
    // next solution is a fresh solve.
    post(addr, &format!("/streams/{id}/push"), &instance_body(33));
    let sol3 = parse(&get(addr, &format!("/streams/{id}/solution")));
    assert_eq!(sol3.get("cached").and_then(Json::as_bool), Some(false));

    // Lifecycle + typed errors.
    let listed = parse(&get(addr, "/streams"));
    assert_eq!(
        listed
            .get("streams")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(1)
    );
    assert_eq!(get(addr, &format!("/streams/{id}")).status, 200);
    let r = get(addr, "/streams/s9999ff/solution");
    assert_eq!(error_kind(&r), (404.0, "stream_not_found".into()));
    let r = post(
        addr,
        &format!("/streams/{id}/push"),
        r#"{"dim": 5, "points": [{"locations": [[0, 1, 2, 3, 4]], "probs": [1]}]}"#,
    );
    assert_eq!(error_kind(&r), (422.0, "dimension_mismatch".into()));
    let r = post(addr, "/streams", r#"{"k": 0}"#);
    assert_eq!(error_kind(&r), (422.0, "zero_k".into()));
    let r = post(addr, "/streams", r#"{"k": 2, "budget": 0}"#);
    assert_eq!(error_kind(&r), (400.0, "bad_schema".into()));

    // An empty stream has no solution yet.
    let empty = parse(&post(addr, "/streams", r#"{"k": 2}"#));
    let empty_id = empty.get("id").and_then(Json::as_str).unwrap();
    let r = get(addr, &format!("/streams/{empty_id}/solution"));
    assert_eq!(error_kind(&r), (422.0, "empty_set".into()));

    let r = client::request(addr, "DELETE", &format!("/streams/{id}"), None).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(get(addr, &format!("/streams/{id}")).status, 404);
    assert_eq!(metric(addr, &["requests", "streams_push"]), 4.0);

    handle.shutdown();
}

/// The bounded per-stream ingest queue pushes back under a burst: with
/// a slow apply (the fault-injection delay) and a queue of 4, a burst
/// of 8 concurrent pushes splits into acks and typed
/// `429 ingest_overloaded` rejections carrying `Retry-After`. No acked
/// push is ever lost — the acked epochs are exactly `1..=accepted` and
/// the stream converges to that epoch count — and the `/metrics`
/// ingest counters agree with the observed split.
#[test]
fn ingest_backpressure_rejects_bursts_and_loses_no_acked_push() {
    let config = ServerConfig {
        ingest_queue_cap: 4,
        ingest_apply_delay_ms: 250,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    let created = parse(&post(addr, "/streams", r#"{"k": 2, "budget": 16}"#));
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Fire 8 pushes concurrently. The worker applies at most ~4/s, so
    // the 4-deep queue must fill and reject at least one of them.
    let mut threads = Vec::new();
    for seed in 0..8u64 {
        let path = format!("/streams/{id}/push");
        let body = instance_body(40 + seed);
        threads.push(std::thread::spawn(move || {
            client::request(addr, "POST", &path, Some(&body)).expect("request")
        }));
    }
    let responses: Vec<HttpResponse> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let mut acked_epochs = Vec::new();
    let mut rejected = 0u64;
    for r in &responses {
        match r.status {
            200 => {
                let doc = parse(r);
                acked_epochs.push(doc.get("epoch").and_then(Json::as_f64).unwrap() as u64);
            }
            429 => {
                assert_eq!(error_kind(r), (429.0, "ingest_overloaded".into()));
                assert!(
                    r.headers
                        .iter()
                        .any(|(name, value)| name == "retry-after" && value == "1"),
                    "429 without Retry-After: {:?}",
                    r.headers
                );
                rejected += 1;
            }
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    let accepted = acked_epochs.len() as u64;
    assert_eq!(accepted + rejected, 8);
    assert!(rejected >= 1, "queue of 4 never filled under an 8-burst");
    // 4 queued + 1 in flight can all be acked even if the whole burst
    // lands before the worker pops a single job.
    assert!(accepted >= 4, "only {accepted} pushes accepted");

    // Every ack is real: the acked epochs are exactly 1..=accepted
    // (rejections never consumed an epoch), and the drained stream
    // reports the same count.
    acked_epochs.sort_unstable();
    assert_eq!(acked_epochs, (1..=accepted).collect::<Vec<_>>());
    let meta = parse(&get(addr, &format!("/streams/{id}")));
    assert_eq!(
        meta.get("epochs").and_then(Json::as_f64),
        Some(accepted as f64)
    );

    assert_eq!(metric(addr, &["ingest", "accepted"]), accepted as f64);
    assert_eq!(metric(addr, &["ingest", "rejected"]), rejected as f64);

    handle.shutdown();
}

/// With a staleness budget, `GET /streams/{id}/solution` inside the
/// window re-serves the last rendered response — marked
/// `"stale": true`, still carrying the *previous* digest even after a
/// push moved the stream — and performs no new solve.
#[test]
fn staleness_budget_serves_cached_reads_without_solving() {
    let config = ServerConfig {
        solve_staleness_ms: 60_000,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(config);

    let created = parse(&post(addr, "/streams", r#"{"k": 2}"#));
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    post(addr, &format!("/streams/{id}/push"), &instance_body(51));

    // The first read solves fresh and primes the staleness window.
    let fresh = parse(&get(addr, &format!("/streams/{id}/solution")));
    assert_eq!(fresh.get("stale"), None, "fresh solve marked stale");
    let digest = fresh
        .get("stream")
        .unwrap()
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // The stream moves on, but a read inside the budget still re-serves
    // the previous response: old digest, `"stale": true`, and zero new
    // solves recorded anywhere in /metrics.
    post(addr, &format!("/streams/{id}/push"), &instance_body(52));
    let solves_before = metric(addr, &["solves", "ok"]);
    let stale = parse(&get(addr, &format!("/streams/{id}/solution")));
    assert_eq!(stale.get("stale").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stale
            .get("stream")
            .unwrap()
            .get("digest")
            .and_then(Json::as_str),
        Some(digest.as_str())
    );
    assert!(metric(addr, &["ingest", "stale_served"]) >= 1.0);
    assert_eq!(metric(addr, &["solves", "ok"]), solves_before);

    handle.shutdown();
}
