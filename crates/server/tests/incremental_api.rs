//! End-to-end tests for the incremental-solve surface: `solve?base=`
//! warm starts (including the typed cold fallback for unknown bases),
//! the append-and-resolve round trip, `POST /instances/{id}/solve_loo`,
//! and the warm counters on `/metrics`.

use std::net::SocketAddr;

use ukc_json::Json;
use ukc_server::{client, serve, ServerConfig};

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let r = client::request(addr, method, path, Some(body)).expect("request");
    (r.status, Json::parse(&r.body).expect("response is JSON"))
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let r = client::request(addr, "GET", path, None).expect("request");
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

/// Certain 2-d points at the given x coordinates: two far-apart groups
/// make the warm-start certificate easy to satisfy (within-group radius
/// is tiny next to the between-group center separation).
fn doc_of(xs: &[f64]) -> String {
    let points: Vec<String> = xs
        .iter()
        .map(|x| format!(r#"{{"locations": [[{x}, 0.0]], "probs": [1]}}"#))
        .collect();
    format!(r#"{{"dim": 2, "points": [{}]}}"#, points.join(", "))
}

fn two_clusters(n_per: usize) -> Vec<f64> {
    let mut xs = Vec::new();
    for i in 0..n_per {
        xs.push(i as f64);
        xs.push(500.0 + i as f64);
    }
    xs
}

fn warm_report(doc: &Json) -> Json {
    doc.get("report")
        .and_then(|r| r.get("warm"))
        .unwrap_or_else(|| panic!("no report.warm in {}", doc.compact()))
        .clone()
}

fn total_evals(doc: &Json) -> f64 {
    doc.get("report")
        .and_then(|r| r.get("distance_evals"))
        .and_then(|d| d.get("total"))
        .and_then(Json::as_f64)
        .expect("report.distance_evals.total")
}

#[test]
fn warm_solve_reuses_the_base_and_unknown_bases_fall_back_cold() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let (status, doc) = send(addr, "POST", "/instances", &doc_of(&two_clusters(20)));
    assert_eq!(status, 201, "{}", doc.compact());
    let base_id = str_field(&doc, "id");

    // Cold-solve the base so a prior exists server-side.
    let (status, cold) = send(
        addr,
        "POST",
        &format!("/instances/{base_id}/solve"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200);
    assert!(cold.get("report").and_then(|r| r.get("warm")).is_none());

    // Append a point close to an existing one; the response names the
    // parent so the client can chain without bookkeeping.
    let (status, appended) = send(
        addr,
        "POST",
        &format!("/instances/{base_id}/append"),
        &doc_of(&[2.5]),
    );
    assert_eq!(status, 201, "{}", appended.compact());
    let parent_digest = str_field(&appended, "parent_digest");
    assert_eq!(parent_digest, base_id);
    let grown_id = str_field(&appended, "id");

    // Warm solve of the grown instance, chained from the parent.
    let (status, warm) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve?base={parent_digest}"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200, "{}", warm.compact());
    assert_eq!(str_field(&warm, "base"), parent_digest);
    let stats = warm_report(&warm);
    assert!(
        stats.get("fallback") == Some(&Json::Null),
        "warm solve should not have fallen back: {}",
        stats.compact()
    );
    assert_eq!(f64_field(&stats, "reused_centers"), 2.0);
    assert!(f64_field(&stats, "evals_saved") > 0.0);
    assert!(total_evals(&warm) < total_evals(&cold));
    // The warm radius still satisfies the cold approximation contract.
    assert!(f64_field(&warm, "certain_radius") <= 2.0 * f64_field(&cold, "certain_radius") + 1e-9);

    // An unknown base is never an error: cold solve, typed flag, no
    // "base" field, and nothing cached under the cold key.
    let (status, fallback) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve?base=ffffffffffffffff"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200, "{}", fallback.compact());
    assert!(fallback.get("base").is_none());
    let stats = warm_report(&fallback);
    assert_eq!(str_field(&stats, "fallback"), "base_not_found");
    let (_, plain) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve"),
        r#"{"k": 2}"#,
    );
    assert!(
        plain.get("report").and_then(|r| r.get("warm")).is_none(),
        "the flagged fallback must not poison the cold cache entry: {}",
        plain.compact()
    );
    server.shutdown();
}

#[test]
fn warm_and_cold_responses_cache_separately() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (_, doc) = send(addr, "POST", "/instances", &doc_of(&two_clusters(12)));
    let base_id = str_field(&doc, "id");
    let (_, appended) = send(
        addr,
        "POST",
        &format!("/instances/{base_id}/append"),
        &doc_of(&[1.5]),
    );
    let grown_id = str_field(&appended, "id");
    let solve = |path: &str| {
        let (status, doc) = send(addr, "POST", path, r#"{"k": 2}"#);
        assert_eq!(status, 200, "{}", doc.compact());
        doc
    };
    let cold_path = format!("/instances/{grown_id}/solve");
    let warm_path = format!("/instances/{grown_id}/solve?base={base_id}");
    // Cold fills the cold key; the first warm request must not hit it.
    assert_eq!(solve(&cold_path).get("cached"), Some(&Json::from(false)));
    assert_eq!(solve(&cold_path).get("cached"), Some(&Json::from(true)));
    let first_warm = solve(&warm_path);
    assert_eq!(first_warm.get("cached"), Some(&Json::from(false)));
    assert_eq!(solve(&warm_path).get("cached"), Some(&Json::from(true)));
    // And the warm fill did not clobber the cold entry.
    let cold_again = solve(&cold_path);
    assert_eq!(cold_again.get("cached"), Some(&Json::from(true)));
    assert!(cold_again
        .get("report")
        .and_then(|r| r.get("warm"))
        .is_none());
    server.shutdown();
}

#[test]
fn append_with_k_solves_warm_in_one_round_trip_and_chains() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (_, doc) = send(addr, "POST", "/instances", &doc_of(&two_clusters(16)));
    let mut id = str_field(&doc, "id");

    // An 8-epoch append chain: every epoch re-solves warm off its parent
    // in the append response itself.
    for epoch in 0..8u32 {
        let x = 3.0 + f64::from(epoch) * 0.25;
        let (status, appended) = send(
            addr,
            "POST",
            &format!("/instances/{id}/append?k=2"),
            &doc_of(&[x]),
        );
        assert!(
            status == 200 || status == 201,
            "epoch {epoch}: {}",
            appended.compact()
        );
        assert_eq!(str_field(&appended, "parent_digest"), id);
        let solution = appended
            .get("solution")
            .unwrap_or_else(|| panic!("append?k= returns a solution: {}", appended.compact()));
        assert_eq!(str_field(solution, "base"), id);
        let stats = warm_report(solution);
        // Epoch 0's prior is a cold solve of the original instance; every
        // later epoch chains off the previous epoch's *warm* solution —
        // the certificate must keep holding.
        assert!(
            stats.get("fallback") == Some(&Json::Null),
            "epoch {epoch} fell back: {}",
            stats.compact()
        );
        assert!(f64_field(&stats, "evals_saved") > 0.0, "epoch {epoch}");
        id = str_field(&appended, "id");
    }
    server.shutdown();
}

#[test]
fn an_uncached_batch_solve_is_the_prior_of_a_warm_solve() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (_, doc) = send(addr, "POST", "/instances", &doc_of(&two_clusters(20)));
    let base = str_field(&doc, "id");
    // A batch that bypasses the response cache still leaves its solution
    // as the instance's warm prior.
    let batch = format!(r#"{{"ids": ["{base}"], "k": 2, "cache": false}}"#);
    assert_eq!(send(addr, "POST", "/solve_batch", &batch).0, 200);
    let append = format!("/instances/{base}/append");
    let grown = str_field(&send(addr, "POST", &append, &doc_of(&[2.5])).1, "id");

    let jobs = || {
        f64_field(
            get(addr, "/metrics").1.get("scheduler").unwrap(),
            "wave_jobs",
        )
    };
    let before = jobs();
    let solve = format!("/instances/{grown}/solve?base={base}");
    let (_, warm) = send(addr, "POST", &solve, r#"{"k": 2}"#);
    assert_eq!(str_field(&warm, "base"), base);
    assert!(warm_report(&warm).get("fallback") == Some(&Json::Null));
    assert_eq!(
        jobs() - before,
        1.0,
        "only the warm job runs, not a cold parent"
    );
    server.shutdown();
}

#[test]
fn solve_loo_returns_every_variant_and_matches_the_base_solve() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let xs: Vec<f64> = vec![0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0];
    let (_, doc) = send(addr, "POST", "/instances", &doc_of(&xs));
    let id = str_field(&doc, "id");

    let (status, loo) = send(
        addr,
        "POST",
        &format!("/instances/{id}/solve_loo"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200, "{}", loo.compact());
    assert_eq!(f64_field(&loo, "count"), xs.len() as f64);
    let variants = loo
        .get("variants")
        .and_then(Json::as_array)
        .expect("variants array");
    assert_eq!(variants.len(), xs.len());
    for (i, v) in variants.iter().enumerate() {
        assert_eq!(f64_field(v, "removed"), i as f64);
        assert!(f64_field(v, "ecost") >= 0.0);
        assert!(v.get("reused").and_then(Json::as_bool).is_some());
    }
    assert_eq!(
        f64_field(&loo, "reused_variants") + f64_field(&loo, "resolved_variants"),
        xs.len() as f64
    );
    // The embedded base solution is the plain cold solve, bit for bit.
    let (_, cold) = send(
        addr,
        "POST",
        &format!("/instances/{id}/solve"),
        r#"{"k": 2}"#,
    );
    let base = loo.get("base").expect("base solution");
    assert_eq!(
        f64_field(base, "ecost").to_bits(),
        f64_field(&cold, "ecost").to_bits()
    );

    // Unknown instances and bad bodies surface as typed errors.
    let (status, _) = send(addr, "POST", "/instances/zzz/solve_loo", r#"{"k": 2}"#);
    assert_eq!(status, 404);
    let (status, _) = send(
        addr,
        "POST",
        &format!("/instances/{id}/solve_loo"),
        r#"{"k": 0}"#,
    );
    assert_eq!(status, 422);
    server.shutdown();
}

#[test]
fn metrics_expose_warm_counters_and_the_loo_route() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (_, doc) = send(addr, "POST", "/instances", &doc_of(&two_clusters(10)));
    let base_id = str_field(&doc, "id");
    let (_, appended) = send(
        addr,
        "POST",
        &format!("/instances/{base_id}/append"),
        &doc_of(&[0.5]),
    );
    let grown_id = str_field(&appended, "id");
    // One successful warm solve, one unknown-base fallback, one LOO.
    let (status, _) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve?base={base_id}"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200);
    let (status, _) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve?base=0000000000000000"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200);
    let (status, _) = send(
        addr,
        "POST",
        &format!("/instances/{grown_id}/solve_loo"),
        r#"{"k": 2}"#,
    );
    assert_eq!(status, 200);

    let (_, metrics) = get(addr, "/metrics");
    let warm = metrics
        .get("solves")
        .and_then(|s| s.get("warm"))
        .expect("solves.warm section");
    assert!(f64_field(warm, "count") >= 2.0, "{}", warm.compact());
    assert!(f64_field(warm, "evals_saved") > 0.0);
    assert!(f64_field(warm, "fallback_cold") >= 1.0);
    assert_eq!(
        metrics
            .get("requests")
            .and_then(|r| r.get("instances_solve_loo"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    server.shutdown();
}

#[test]
fn stream_solutions_chain_epochs_through_the_slot() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (status, doc) = send(addr, "POST", "/streams", r#"{"k": 2, "budget": 64}"#);
    assert_eq!(status, 201);
    let id = str_field(&doc, "id");
    let push = |xs: &[f64]| {
        let (status, doc) = send(addr, "POST", &format!("/streams/{id}/push"), &doc_of(xs));
        assert_eq!(status, 200, "{}", doc.compact());
    };
    push(&two_clusters(8));
    let (status, first) = get(addr, &format!("/streams/{id}/solution"));
    assert_eq!(status, 200, "{}", first.compact());
    assert_eq!(first.get("cached"), Some(&Json::from(false)));
    // Unchanged stream: served from the digest-keyed solution cache.
    let (_, again) = get(addr, &format!("/streams/{id}/solution"));
    assert_eq!(again.get("cached"), Some(&Json::from(true)));
    assert_eq!(
        f64_field(&again, "ecost").to_bits(),
        f64_field(&first, "ecost").to_bits()
    );
    // Evolved stream: the solve warm-starts from the previous epoch
    // (successful or flagged-fallback — either way a 200 with warm
    // stats, chained off the previous digest).
    push(&[250.0]);
    let (status, evolved) = get(addr, &format!("/streams/{id}/solution"));
    assert_eq!(status, 200, "{}", evolved.compact());
    let stats = warm_report(&evolved);
    assert!(stats.get("fallback").is_some());
    assert_eq!(
        str_field(&evolved, "base"),
        str_field(&first, "instance_digest")
    );
    server.shutdown();
}
