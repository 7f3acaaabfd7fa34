//! Request schemas: typed parsing of solve bodies.
//!
//! The solve body is strict: every field is validated, and unknown
//! top-level fields are rejected with a `400` naming the field, so a
//! typo'd `"slover"` fails loudly instead of silently running defaults.
//!
//! ```json
//! {
//!   "k": 3,
//!   "rule": "ep",            // ed | ep | oc            (default "ep")
//!   "solver": "gonzalez",    // gonzalez | local-search | grid | exact
//!   "rounds": 50,            // local-search only
//!   "eps": 0.25,             // grid only
//!   "seed": 0,
//!   "lower_bound": true,     // certify a lower bound in the report
//!   "kernel": "tiled",       // scalar | tiled | blocked: validated, then
//!                            // ignored (see below)
//!   "assignment": "plain",   // plain | weighted (additively-weighted
//!                            // Apollonius assignment; default "plain")
//!   "cache": true            // false bypasses the solution cache
//! }
//! ```
//!
//! `POST /solve` adds a required `"instance"` field carrying the same
//! document `POST /instances` accepts.
//!
//! `"kernel"` selects nothing: every solve runs the same sweeps, which
//! pick the scalar loop or the tiled screen from their size alone and
//! return the same bits either way. The field is still accepted and
//! validated because write-ahead-log replay re-parses stored
//! stream-create bodies, and older clients send it.

use crate::error::ApiError;
use ukc_core::{AssignmentMode, AssignmentRule, CertainStrategy, SolveError, SolverConfig};
use ukc_json::format::JsonInstance;
use ukc_json::Json;

/// A parsed solve request: `k`, the solver configuration, and whether
/// the solution cache may serve it.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Number of centers.
    pub k: usize,
    /// The validated configuration.
    pub config: SolverConfig,
    /// `false` forces a fresh solve and skips cache insertion.
    pub use_cache: bool,
}

const SOLVE_FIELDS: &[&str] = &[
    "k",
    "rule",
    "solver",
    "rounds",
    "eps",
    "seed",
    "lower_bound",
    "kernel",
    "assignment",
    "cache",
];

/// Parses a request body into JSON, mapping parse failures to `400`.
pub fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_json", "body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request("bad_json", e.to_string()))
}

fn reject_unknown_fields(doc: &Json, allowed: &[&str]) -> Result<(), ApiError> {
    if let Json::Obj(pairs) = doc {
        for (key, _) in pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(ApiError::bad_request(
                    "unknown_field",
                    format!("unknown field {key:?}"),
                ));
            }
        }
        Ok(())
    } else {
        Err(ApiError::bad_request(
            "bad_schema",
            "body must be a JSON object",
        ))
    }
}

/// Parses the solve body shared by `POST /instances/{id}/solve` and
/// `POST /solve` (the latter passes `allow_instance = true`).
pub fn parse_solve_request(doc: &Json, allow_instance: bool) -> Result<SolveRequest, ApiError> {
    let mut allowed = SOLVE_FIELDS.to_vec();
    if allow_instance {
        allowed.push("instance");
    }
    parse_solve_fields(doc, &allowed)
}

/// The shared field parser behind [`parse_solve_request`] and
/// [`parse_stream_create`]: rejects fields outside `allowed`, then reads
/// the solve fields proper.
fn parse_solve_fields(doc: &Json, allowed: &[&str]) -> Result<SolveRequest, ApiError> {
    reject_unknown_fields(doc, allowed)?;

    let k = doc
        .get("k")
        .ok_or_else(|| ApiError::bad_request("bad_schema", "missing field \"k\""))?
        .as_usize()
        .ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"k\" must be a non-negative integer")
        })?;

    let rule = match doc.get("rule").map(|r| (r, r.as_str())) {
        None => AssignmentRule::ExpectedPoint,
        Some((_, Some("ed"))) => AssignmentRule::ExpectedDistance,
        Some((_, Some("ep"))) => AssignmentRule::ExpectedPoint,
        Some((_, Some("oc"))) => AssignmentRule::OneCenter,
        Some((raw, _)) => {
            return Err(ApiError::bad_request(
                "bad_schema",
                format!(
                    "\"rule\" must be \"ed\", \"ep\", or \"oc\", got {}",
                    raw.compact()
                ),
            ))
        }
    };

    let rounds = match doc.get("rounds") {
        None => 50,
        Some(r) => r.as_usize().ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"rounds\" must be a non-negative integer")
        })?,
    };
    let strategy = match doc.get("solver").map(|s| (s, s.as_str())) {
        None => CertainStrategy::Gonzalez,
        Some((_, Some("gonzalez"))) => CertainStrategy::Gonzalez,
        Some((_, Some("local-search"))) => CertainStrategy::GonzalezLocalSearch { rounds },
        Some((_, Some("grid"))) => CertainStrategy::Grid,
        Some((_, Some("exact"))) => CertainStrategy::ExactDiscrete,
        Some((raw, _)) => {
            return Err(ApiError::bad_request(
                "bad_schema",
                format!(
                "\"solver\" must be \"gonzalez\", \"local-search\", \"grid\", or \"exact\", got {}",
                raw.compact()
            ),
            ))
        }
    };

    // The eps default must match the CLI's (0.25, see `solver_config` in
    // ukc-cli): eps is part of the cache key, so a divergent default
    // would split the cache between curl and `ukc client` requests that
    // mean the same thing.
    let eps = match doc.get("eps") {
        None => 0.25,
        Some(eps) => eps
            .as_f64()
            .ok_or_else(|| ApiError::bad_request("bad_schema", "\"eps\" must be a number"))?,
    };
    let mut builder = SolverConfig::builder()
        .rule(rule)
        .strategy(strategy)
        .eps(eps);
    if let Some(seed) = doc.get("seed") {
        let seed = seed.as_usize().ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"seed\" must be a non-negative integer")
        })?;
        builder = builder.seed(seed as u64);
    }
    if let Some(lb) = doc.get("lower_bound") {
        let lb = lb.as_bool().ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"lower_bound\" must be a boolean")
        })?;
        builder = builder.lower_bound(lb);
    }
    if let Some(raw) = doc.get("kernel") {
        if !matches!(raw.as_str(), Some("scalar" | "tiled" | "blocked")) {
            return Err(ApiError::bad_request(
                "bad_schema",
                format!(
                    "\"kernel\" must be \"scalar\" or \"tiled\", got {}",
                    raw.compact()
                ),
            ));
        }
    }
    if let Some(raw) = doc.get("assignment") {
        let mode = raw
            .as_str()
            .and_then(AssignmentMode::parse)
            .ok_or_else(|| {
                ApiError::bad_request(
                    "bad_schema",
                    format!(
                        "\"assignment\" must be \"plain\" or \"weighted\", got {}",
                        raw.compact()
                    ),
                )
            })?;
        builder = builder.assignment(mode);
    }
    let use_cache = match doc.get("cache") {
        None => true,
        Some(c) => c
            .as_bool()
            .ok_or_else(|| ApiError::bad_request("bad_schema", "\"cache\" must be a boolean"))?,
    };

    // Builder validation (bad eps) is a semantic error: 422 via SolveError.
    let config = builder.build().map_err(ApiError::from)?;
    // k = 0 can be rejected before touching any instance.
    if k == 0 {
        return Err(SolveError::ZeroK.into());
    }
    Ok(SolveRequest {
        k,
        config,
        use_cache,
    })
}

/// Parses the `POST /streams` body: the solve fields plus an optional
/// `"budget"` (summary working-set bound; defaults to
/// `ukc_stream::DEFAULT_BUDGET_PER_CENTER * k`, values below `k` are
/// clamped up to `k`).
pub fn parse_stream_create(doc: &Json) -> Result<(SolveRequest, Option<usize>), ApiError> {
    let mut allowed = SOLVE_FIELDS.to_vec();
    allowed.push("budget");
    let budget = match doc.get("budget") {
        None => None,
        Some(b) => Some(b.as_usize().filter(|&b| b > 0).ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"budget\" must be a positive integer")
        })?),
    };
    // parse_solve_fields runs the unknown-field check against the
    // extended allowlist, so "budget" passes and typos still 400.
    let request = parse_solve_fields(doc, &allowed)?;
    Ok((request, budget))
}

/// Parses the `POST /solve_batch` body: the solve fields plus `"ids"`,
/// a non-empty array of instance IDs. Every id is solved under the one
/// shared configuration; per-id failures surface as per-slot error
/// documents, not a failed batch.
pub fn parse_solve_batch(doc: &Json) -> Result<(Vec<String>, SolveRequest), ApiError> {
    let mut allowed = SOLVE_FIELDS.to_vec();
    allowed.push("ids");
    let request = parse_solve_fields(doc, &allowed)?;
    let ids = doc
        .get("ids")
        .ok_or_else(|| ApiError::bad_request("bad_schema", "missing field \"ids\""))?
        .as_array()
        .ok_or_else(|| {
            ApiError::bad_request("bad_schema", "\"ids\" must be an array of instance IDs")
        })?
        .iter()
        .map(|v| {
            v.as_str().map(str::to_string).ok_or_else(|| {
                ApiError::bad_request("bad_schema", "\"ids\" must be an array of instance IDs")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if ids.is_empty() {
        return Err(ApiError::bad_request(
            "bad_schema",
            "\"ids\" must not be empty",
        ));
    }
    Ok((ids, request))
}

/// Parses the one-shot body: the solve fields plus the inline instance.
pub fn parse_oneshot(doc: &Json) -> Result<(JsonInstance, SolveRequest), ApiError> {
    let request = parse_solve_request(doc, true)?;
    let instance = doc
        .get("instance")
        .ok_or_else(|| ApiError::bad_request("bad_schema", "missing field \"instance\""))?;
    let instance = JsonInstance::from_json(instance).map_err(ApiError::from)?;
    Ok((instance, request))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<SolveRequest, ApiError> {
        parse_solve_request(&Json::parse(text).unwrap(), false)
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse(r#"{"k": 3}"#).unwrap();
        assert_eq!(r.k, 3);
        assert!(r.use_cache);
        assert_eq!(r.config.rule(), AssignmentRule::ExpectedPoint);
        assert_eq!(r.config.strategy(), CertainStrategy::Gonzalez);
        assert!(r.config.computes_lower_bound());
        // Must match ukc-cli's `--eps` default: eps is part of the cache
        // key, so the two surfaces agreeing keeps their requests shared.
        assert_eq!(r.config.eps(), 0.25);
        assert_eq!(r.config.seed(), 0);
    }

    #[test]
    fn full_bodies_parse() {
        let r = parse(
            r#"{"k": 2, "rule": "oc", "solver": "local-search", "rounds": 7,
                "eps": 0.5, "seed": 9, "lower_bound": false, "kernel": "tiled",
                "cache": false}"#,
        )
        .unwrap();
        assert_eq!(r.config.rule(), AssignmentRule::OneCenter);
        assert_eq!(
            r.config.strategy(),
            CertainStrategy::GonzalezLocalSearch { rounds: 7 }
        );
        assert_eq!(r.config.eps(), 0.5);
        assert_eq!(r.config.seed(), 9);
        assert!(!r.config.computes_lower_bound());
        assert!(!r.use_cache);
        let r = parse(r#"{"k": 2, "kernel": "scalar"}"#).unwrap();
        assert_eq!(r.config, parse(r#"{"k": 2}"#).unwrap().config);
    }

    #[test]
    fn assignment_field_parses_and_defaults_plain() {
        let r = parse(r#"{"k": 2}"#).unwrap();
        assert_eq!(r.config.assignment(), AssignmentMode::Plain);
        let r = parse(r#"{"k": 2, "assignment": "weighted"}"#).unwrap();
        assert_eq!(r.config.assignment(), AssignmentMode::AdditivelyWeighted);
        let r = parse(r#"{"k": 2, "assignment": "plain"}"#).unwrap();
        assert_eq!(r.config.assignment(), AssignmentMode::Plain);
    }

    #[test]
    fn unknown_fields_and_bad_values_are_400() {
        for (body, needle) in [
            (r#"{"k": 3, "slover": "grid"}"#, "slover"),
            (r#"{"k": 3, "assignment": "apollonius"}"#, "assignment"),
            (r#"{"k": 3, "assignment": 1}"#, "assignment"),
            (r#"{"k": 3, "rule": "xx"}"#, "rule"),
            (r#"{"k": 3, "solver": 5}"#, "solver"),
            (r#"{"rule": "ep"}"#, "\"k\""),
            (r#"{"k": 1.5}"#, "\"k\""),
            (r#"{"k": 3, "cache": "yes"}"#, "cache"),
            (r#"{"k": 3, "kernel": "simd"}"#, "kernel"),
            (r#"{"k": 3, "kernel": 7}"#, "kernel"),
        ] {
            let e = parse(body).unwrap_err();
            assert_eq!(e.status, 400, "{body}");
            assert!(e.message.contains(needle), "{body} -> {}", e.message);
        }
    }

    #[test]
    fn stream_create_resolves_the_retired_blocked_kernel_to_tiled() {
        // WAL-recovered stream create records may still carry "blocked";
        // it parses to the config "tiled" and an absent field give.
        let create = |body: &str| parse_stream_create(&Json::parse(body).unwrap()).unwrap();
        let (request, budget) = create(r#"{"k": 3, "budget": 10, "kernel": "blocked"}"#);
        assert_eq!(budget, Some(10));
        for body in [
            r#"{"k": 3, "budget": 10, "kernel": "tiled"}"#,
            r#"{"k": 3, "budget": 10}"#,
        ] {
            assert_eq!(create(body).0.config, request.config, "{body}");
        }
        let e = parse(r#"{"k": 3, "kernel": "simd"}"#).unwrap_err();
        assert!(
            e.message.contains(r#""scalar" or "tiled""#),
            "{}",
            e.message
        );
    }

    #[test]
    fn semantic_errors_are_422() {
        let e = parse(r#"{"k": 0}"#).unwrap_err();
        assert_eq!((e.status, e.kind), (422, "zero_k"));
        let e = parse(r#"{"k": 3, "eps": -1}"#).unwrap_err();
        assert_eq!((e.status, e.kind), (422, "bad_epsilon"));
    }

    #[test]
    fn oneshot_requires_instance() {
        let doc = Json::parse(r#"{"k": 2}"#).unwrap();
        let e = parse_oneshot(&doc).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("instance"));
        let doc = Json::parse(
            r#"{"k": 1, "instance": {"dim": 1, "points": [{"locations": [[0]], "probs": [1]}]}}"#,
        )
        .unwrap();
        let (instance, request) = parse_oneshot(&doc).unwrap();
        assert_eq!(instance.points.len(), 1);
        assert_eq!(request.k, 1);
    }
}
