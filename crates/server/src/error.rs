//! Typed API errors and their status-code mapping.
//!
//! Every failure the service can produce is an [`ApiError`] with a
//! machine-readable `kind`, mirroring [`SolveError`]'s philosophy: a
//! client can dispatch on `error.kind` without string matching. The JSON
//! payload is always
//!
//! ```json
//! { "error": { "status": 422, "kind": "k_exceeds_n", "message": "..." } }
//! ```
//!
//! Mapping policy: transport/shape problems (unreadable HTTP, invalid
//! JSON, schema violations, unknown fields) are `400`; a well-formed
//! request naming something that does not exist is `404`; a wrong method
//! on a real route is `405`; an oversized body is `413`; a request that
//! parses but is semantically invalid — every [`SolveError`] and every
//! instance-validation failure — is `422`; scheduler shutdown is `503`;
//! a solve wave that panicked answers its own jobs `500 internal`.

use crate::http::HttpError;
use ukc_core::SolveError;
use ukc_json::format::FormatError;
use ukc_json::Json;

/// A typed, JSON-serializable API failure.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// The HTTP status code.
    pub status: u16,
    /// Stable machine-readable discriminator.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A `400` with the given kind.
    pub fn bad_request(kind: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            kind,
            message: message.into(),
        }
    }

    /// `404` for an unknown route.
    pub fn route_not_found(path: &str) -> Self {
        ApiError {
            status: 404,
            kind: "route_not_found",
            message: format!("no route {path}"),
        }
    }

    /// `404` for an unknown instance.
    pub fn instance_not_found(id: &str) -> Self {
        ApiError {
            status: 404,
            kind: "instance_not_found",
            message: format!("no instance {id}"),
        }
    }

    /// `404` for an unknown stream.
    pub fn stream_not_found(id: &str) -> Self {
        ApiError {
            status: 404,
            kind: "stream_not_found",
            message: format!("no stream {id}"),
        }
    }

    /// `405` for a known route with the wrong method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError {
            status: 405,
            kind: "method_not_allowed",
            message: format!("{method} is not supported on {path}"),
        }
    }

    /// `503` when the scheduler is gone (server shutting down).
    pub fn unavailable() -> Self {
        ApiError {
            status: 503,
            kind: "shutting_down",
            message: "the solve scheduler is no longer accepting work".into(),
        }
    }

    /// `500` when the server failed internally while handling a request
    /// (a solve wave panicked). Other requests are unaffected.
    pub fn internal(detail: impl Into<String>) -> Self {
        ApiError {
            status: 500,
            kind: "internal",
            message: detail.into(),
        }
    }

    /// `503` when the scheduler's bounded queue is full. The response
    /// carries a `Retry-After` header; the request was never enqueued, so
    /// retrying is always safe.
    pub fn overloaded(depth: usize, cap: usize) -> Self {
        ApiError {
            status: 503,
            kind: "overloaded",
            message: format!("solve queue is full ({depth} of {cap} slots); retry shortly"),
        }
    }

    /// `429` when a stream's bounded ingest queue is full. The response
    /// carries a `Retry-After` header; the push was never enqueued, so
    /// retrying is always safe (at-most-once until acked).
    pub fn ingest_overloaded(depth: usize, cap: usize) -> Self {
        ApiError {
            status: 429,
            kind: "ingest_overloaded",
            message: format!("stream ingest queue is full ({depth} of {cap} slots); retry shortly"),
        }
    }

    /// `503` when the shard owning a digest is down and no live replica
    /// holds it. This is the *only* failure mode of a digest-routed read
    /// in a degraded cluster: reads of replicated instances keep working.
    pub fn shard_unavailable(id: &str) -> Self {
        ApiError {
            status: 503,
            kind: "shard_unavailable",
            message: format!("the shard owning {id} is down and no live replica holds it"),
        }
    }

    /// `400` for a cluster-lifecycle request sent to a node that is not
    /// running as a coordinator.
    pub fn not_coordinator() -> Self {
        ApiError {
            status: 400,
            kind: "not_coordinator",
            message: "this server is not running in coordinator mode (start with --shards)".into(),
        }
    }

    /// `502` when a shard answered but with something that is not a
    /// well-formed response (the cluster analog of `bad_http`).
    pub fn shard_error(addr: &str, detail: impl Into<String>) -> Self {
        ApiError {
            status: 502,
            kind: "shard_error",
            message: format!("shard {addr}: {}", detail.into()),
        }
    }

    /// `404` for a cluster node ID that is not in the registry.
    pub fn node_not_found(id: &str) -> Self {
        ApiError {
            status: 404,
            kind: "node_not_found",
            message: format!("no cluster node {id}"),
        }
    }

    /// The wire payload.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("status", Json::from(self.status as f64)),
                ("kind", Json::from(self.kind)),
                ("message", Json::from(self.message.as_str())),
            ]),
        )])
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.kind, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<HttpError> for ApiError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::PayloadTooLarge { limit, declared } => ApiError {
                status: 413,
                kind: "payload_too_large",
                message: format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            },
            HttpError::Closed | HttpError::Io(_) | HttpError::BadRequest(_) => {
                ApiError::bad_request("bad_http", e.to_string())
            }
        }
    }
}

impl From<SolveError> for ApiError {
    fn from(e: SolveError) -> Self {
        let kind = match &e {
            SolveError::ZeroK => "zero_k",
            SolveError::EmptySet => "empty_set",
            SolveError::KExceedsN { .. } => "k_exceeds_n",
            SolveError::EmptyCandidates => "empty_candidates",
            SolveError::DimensionMismatch { .. } => "dimension_mismatch",
            SolveError::CoordinatesTooLarge { .. } => "coordinates_too_large",
            SolveError::RuleUnsupported { .. } => "rule_unsupported",
            SolveError::StrategyUnsupported { .. } => "strategy_unsupported",
            SolveError::WeightedUnsupported { .. } => "weighted_unsupported",
            SolveError::BadEpsilon { .. } => "bad_epsilon",
            SolveError::UnknownTableRow { .. } => "unknown_table_row",
        };
        ApiError {
            status: 422,
            kind,
            message: e.to_string(),
        }
    }
}

impl From<ukc_durable::StoreError> for ApiError {
    /// Durability failures: an I/O failure (disk gone, out of space,
    /// permissions) is a retryable `503 storage_unavailable`; CRC-failed
    /// acknowledged data is a `500 corrupt_segment` naming the offending
    /// file, because retrying cannot help and an operator must look.
    fn from(e: ukc_durable::StoreError) -> Self {
        use ukc_durable::StoreError;
        match &e {
            StoreError::Io { .. } | StoreError::NotADirectory { .. } => ApiError {
                status: 503,
                kind: "storage_unavailable",
                message: e.to_string(),
            },
            StoreError::CorruptSegment { .. } => ApiError {
                status: 500,
                kind: "corrupt_segment",
                message: e.to_string(),
            },
        }
    }
}

impl From<ukc_cluster::RegistryError> for ApiError {
    /// Registry lifecycle failures: naming a node that is not registered
    /// is a `404`; a structurally impossible change (removing the last
    /// node, splitting an exhausted prefix space) is a `422`.
    fn from(e: ukc_cluster::RegistryError) -> Self {
        use ukc_cluster::RegistryError;
        match &e {
            RegistryError::UnknownNode(id) => ApiError::node_not_found(&id.to_string()),
            RegistryError::Empty | RegistryError::LastNode => ApiError {
                status: 422,
                kind: "last_node",
                message: e.to_string(),
            },
            RegistryError::SpaceExhausted => ApiError {
                status: 422,
                kind: "space_exhausted",
                message: e.to_string(),
            },
        }
    }
}

impl From<FormatError> for ApiError {
    fn from(e: FormatError) -> Self {
        match &e {
            FormatError::Schema(_) => ApiError::bad_request("bad_schema", e.to_string()),
            FormatError::Empty => ApiError {
                status: 422,
                kind: "empty_set",
                message: e.to_string(),
            },
            FormatError::DimMismatch { .. }
            | FormatError::BadPoint { .. }
            | FormatError::NonFinite { .. }
            | FormatError::EmptyLocation { .. } => ApiError {
                status: 422,
                kind: "bad_instance",
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_errors_map_to_422_with_stable_kinds() {
        let e: ApiError = SolveError::KExceedsN { k: 5, n: 3 }.into();
        assert_eq!((e.status, e.kind), (422, "k_exceeds_n"));
        let e: ApiError = SolveError::ZeroK.into();
        assert_eq!((e.status, e.kind), (422, "zero_k"));
        let e: ApiError = SolveError::BadEpsilon { eps: -1.0 }.into();
        assert_eq!((e.status, e.kind), (422, "bad_epsilon"));
    }

    #[test]
    fn payload_shape_is_stable() {
        let doc = ApiError::instance_not_found("deadbeef").to_json();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("status").and_then(Json::as_f64), Some(404.0));
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("instance_not_found")
        );
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("deadbeef"));
    }

    #[test]
    fn store_errors_map_to_503_or_500() {
        let e: ApiError = ukc_durable::StoreError::Io {
            path: "/data/wal".into(),
            op: "fsync",
            source: std::io::Error::other("disk gone"),
        }
        .into();
        assert_eq!((e.status, e.kind), (503, "storage_unavailable"));
        let e: ApiError = ukc_durable::StoreError::CorruptSegment {
            path: "/data/instances/seg-000001.log".into(),
            offset: 64,
            detail: "crc mismatch".into(),
        }
        .into();
        assert_eq!((e.status, e.kind), (500, "corrupt_segment"));
        assert!(e.message.contains("seg-000001.log"));
    }

    #[test]
    fn cluster_errors_have_stable_kinds() {
        let e = ApiError::overloaded(4096, 4096);
        assert_eq!((e.status, e.kind), (503, "overloaded"));
        let e = ApiError::shard_unavailable("deadbeef");
        assert_eq!((e.status, e.kind), (503, "shard_unavailable"));
        assert!(e.message.contains("deadbeef"));
        let e = ApiError::not_coordinator();
        assert_eq!((e.status, e.kind), (400, "not_coordinator"));
        let e = ApiError::shard_error("127.0.0.1:9", "bad body");
        assert_eq!((e.status, e.kind), (502, "shard_error"));
        let e: ApiError = ukc_cluster::RegistryError::UnknownNode(7).into();
        assert_eq!((e.status, e.kind), (404, "node_not_found"));
        let e: ApiError = ukc_cluster::RegistryError::LastNode.into();
        assert_eq!((e.status, e.kind), (422, "last_node"));
        let e: ApiError = ukc_cluster::RegistryError::SpaceExhausted.into();
        assert_eq!((e.status, e.kind), (422, "space_exhausted"));
    }

    #[test]
    fn http_errors_map_to_400_or_413() {
        let e: ApiError = HttpError::BadRequest("nope".into()).into();
        assert_eq!((e.status, e.kind), (400, "bad_http"));
        let e: ApiError = HttpError::PayloadTooLarge {
            limit: 10,
            declared: 20,
        }
        .into();
        assert_eq!((e.status, e.kind), (413, "payload_too_large"));
    }
}
