//! JSON instance, solution, and report formats.
//!
//! One encoder for every surface: the CLI's files and `--format json`
//! output, the HTTP server's request/response bodies, and the experiment
//! drivers all go through this module, so the same instance or solution
//! is byte-identical no matter which tool emitted it.
//!
//! The library types keep their invariants behind validating constructors,
//! so the wire schema is a separate, plain-data layer with explicit
//! conversion (and therefore explicit validation errors) in both
//! directions:
//!
//! ```json
//! {
//!   "dim": 2,
//!   "points": [
//!     { "locations": [[0.0, 1.0], [2.0, 3.0]], "probs": [0.25, 0.75] }
//!   ]
//! }
//! ```
//!
//! Serialization is hand-rolled over [`crate::Json`]; floats round-trip
//! exactly (shortest round-trip formatting on write, `f64` parse on read).

use crate::Json;
use ukc_core::{LooReport, Report, Solution};
use ukc_metric::Point;
use ukc_uncertain::{UncertainPoint, UncertainPointError, UncertainSet};

/// One uncertain point on disk.
#[derive(Clone, Debug)]
pub struct JsonPoint {
    /// Possible locations, each a `dim`-length coordinate vector.
    pub locations: Vec<Vec<f64>>,
    /// Location probabilities (must sum to 1 within 1e-6).
    pub probs: Vec<f64>,
}

/// A complete instance on disk.
#[derive(Clone, Debug)]
pub struct JsonInstance {
    /// Ambient dimension; every location must have this length.
    pub dim: usize,
    /// The uncertain points.
    pub points: Vec<JsonPoint>,
}

/// A solution on disk.
#[derive(Clone, Debug)]
pub struct JsonSolution {
    /// Chosen centers.
    pub centers: Vec<Vec<f64>>,
    /// `assignment[i]` = index into `centers` serving point `i`.
    pub assignment: Vec<usize>,
    /// Exact expected cost reported by the solver.
    pub ecost: f64,
    /// Certified lower bound at solve time (0 when not computed).
    pub lower_bound: f64,
    /// Free-form description of how the solution was produced.
    pub method: String,
}

/// Conversion and validation errors, with the failing point index where
/// applicable.
#[derive(Debug)]
pub enum FormatError {
    /// The document is not valid JSON or misses a required field.
    Schema(String),
    /// A location's length disagrees with `dim`.
    DimMismatch {
        /// Index of the offending point.
        point: usize,
        /// Length found.
        got: usize,
        /// Length expected.
        expected: usize,
    },
    /// The underlying distribution was rejected.
    BadPoint {
        /// Index of the offending point.
        point: usize,
        /// The library's validation error.
        source: ukc_uncertain::UncertainPointError,
    },
    /// The instance has no points.
    Empty,
    /// A coordinate is NaN or infinite.
    NonFinite {
        /// Index of the offending point.
        point: usize,
    },
    /// A location has no coordinates (`dim` 0 instances are rejected
    /// here, *before* the panicking `Point` constructor can see them).
    EmptyLocation {
        /// Index of the offending point.
        point: usize,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Schema(msg) => write!(f, "{msg}"),
            FormatError::DimMismatch {
                point,
                got,
                expected,
            } => {
                write!(
                    f,
                    "point {point}: location has {got} coordinates, instance dim is {expected}"
                )
            }
            FormatError::BadPoint { point, source } => write!(f, "point {point}: {source}"),
            FormatError::Empty => write!(f, "instance has no points"),
            FormatError::NonFinite { point } => write!(f, "point {point}: non-finite coordinate"),
            FormatError::EmptyLocation { point } => {
                write!(f, "point {point}: location has no coordinates")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// Constructor slot for [`JsonInstance::to_set_with`]: either the
/// renormalizing [`UncertainPoint::new`] or the bit-preserving
/// [`UncertainPoint::from_normalized`].
type MakePoint = fn(Vec<Point>, Vec<f64>) -> Result<UncertainPoint<Point>, UncertainPointError>;

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, FormatError> {
    doc.get(key)
        .ok_or_else(|| FormatError::Schema(format!("missing field {key:?}")))
}

fn f64_array(value: &Json, what: &str) -> Result<Vec<f64>, FormatError> {
    value
        .as_array()
        .ok_or_else(|| FormatError::Schema(format!("{what} must be an array")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| FormatError::Schema(format!("{what} must contain numbers")))
        })
        .collect()
}

impl JsonInstance {
    /// Parses an instance document.
    pub fn parse(text: &str) -> Result<Self, FormatError> {
        let doc = Json::parse(text).map_err(|e| FormatError::Schema(e.to_string()))?;
        Self::from_json(&doc)
    }

    /// Reads an instance from an already-parsed document (e.g. an
    /// `"instance"` sub-object of a larger request body).
    pub fn from_json(doc: &Json) -> Result<Self, FormatError> {
        let dim = field(doc, "dim")?
            .as_usize()
            .ok_or_else(|| FormatError::Schema("dim must be a non-negative integer".into()))?;
        let points = field(doc, "points")?
            .as_array()
            .ok_or_else(|| FormatError::Schema("points must be an array".into()))?
            .iter()
            .map(|p| {
                Ok(JsonPoint {
                    locations: field(p, "locations")?
                        .as_array()
                        .ok_or_else(|| FormatError::Schema("locations must be an array".into()))?
                        .iter()
                        .map(|loc| f64_array(loc, "location"))
                        .collect::<Result<_, _>>()?,
                    probs: f64_array(field(p, "probs")?, "probs")?,
                })
            })
            .collect::<Result<Vec<_>, FormatError>>()?;
        Ok(Self { dim, points })
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dim", Json::from(self.dim)),
            (
                "points",
                Json::arr(self.points.iter().map(|p| {
                    Json::obj([
                        (
                            "locations",
                            Json::arr(
                                p.locations
                                    .iter()
                                    .map(|loc| Json::nums(loc.iter().copied())),
                            ),
                        ),
                        ("probs", Json::nums(p.probs.iter().copied())),
                    ])
                })),
            ),
        ])
    }

    /// Validates and converts to the library representation.
    ///
    /// Probabilities are renormalized to sum exactly to 1 (the
    /// [`UncertainPoint::new`] contract) — the right behavior for raw
    /// external input.
    pub fn to_set(&self) -> Result<UncertainSet<Point>, FormatError> {
        self.to_set_with(UncertainPoint::new)
    }

    /// Like [`JsonInstance::to_set`], but keeps the stored probabilities
    /// bit-for-bit instead of renormalizing them.
    ///
    /// Renormalization is not idempotent at the ulp level: dividing an
    /// already-normalized distribution by its float sum (close to one
    /// but rarely exactly one) shifts every probability. A document
    /// produced by [`JsonInstance::from_set`] holds probabilities a live
    /// server already normalized, so rebuilding it must go through
    /// [`UncertainPoint::from_normalized`] or the reconstructed set's
    /// digest drifts from the one recorded at write time. Use this for
    /// trusted round-trips (e.g. durable-store recovery), never for
    /// client-supplied input.
    pub fn to_set_verbatim(&self) -> Result<UncertainSet<Point>, FormatError> {
        self.to_set_with(UncertainPoint::from_normalized)
    }

    fn to_set_with(&self, make: MakePoint) -> Result<UncertainSet<Point>, FormatError> {
        if self.points.is_empty() {
            return Err(FormatError::Empty);
        }
        let mut points = Vec::with_capacity(self.points.len());
        for (i, jp) in self.points.iter().enumerate() {
            let mut locs = Vec::with_capacity(jp.locations.len());
            for loc in &jp.locations {
                if loc.len() != self.dim {
                    return Err(FormatError::DimMismatch {
                        point: i,
                        got: loc.len(),
                        expected: self.dim,
                    });
                }
                // `Point::try_new` is the typed gate: non-finite values
                // (e.g. a JSON `1e999`, which parses to +∞) and empty
                // locations become errors here instead of panics in the
                // panicking constructor downstream.
                locs.push(Point::try_new(loc.clone()).map_err(|e| match e {
                    ukc_metric::PointError::Empty => FormatError::EmptyLocation { point: i },
                    _ => FormatError::NonFinite { point: i },
                })?);
            }
            let up = make(locs, jp.probs.clone())
                .map_err(|source| FormatError::BadPoint { point: i, source })?;
            points.push(up);
        }
        Ok(UncertainSet::new(points))
    }

    /// Converts a library set into the disk format.
    pub fn from_set(set: &UncertainSet<Point>) -> Self {
        let dim = set.point(0).locations()[0].dim();
        let points = set
            .iter()
            .map(|up| JsonPoint {
                locations: up.locations().iter().map(|p| p.coords().to_vec()).collect(),
                probs: up.probs().to_vec(),
            })
            .collect();
        Self { dim, points }
    }
}

impl JsonSolution {
    /// Parses a solution document.
    pub fn parse(text: &str) -> Result<Self, FormatError> {
        let doc = Json::parse(text).map_err(|e| FormatError::Schema(e.to_string()))?;
        let centers = field(&doc, "centers")?
            .as_array()
            .ok_or_else(|| FormatError::Schema("centers must be an array".into()))?
            .iter()
            .map(|c| f64_array(c, "center"))
            .collect::<Result<_, _>>()?;
        let assignment = field(&doc, "assignment")?
            .as_array()
            .ok_or_else(|| FormatError::Schema("assignment must be an array".into()))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| FormatError::Schema("assignment must contain indices".into()))
            })
            .collect::<Result<_, _>>()?;
        let ecost = field(&doc, "ecost")?
            .as_f64()
            .ok_or_else(|| FormatError::Schema("ecost must be a number".into()))?;
        let lower_bound = doc.get("lower_bound").and_then(Json::as_f64).unwrap_or(0.0);
        let method = doc
            .get("method")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        Ok(Self {
            centers,
            assignment,
            ecost,
            lower_bound,
            method,
        })
    }

    /// Serializes to a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "centers",
                Json::arr(self.centers.iter().map(|c| Json::nums(c.iter().copied()))),
            ),
            (
                "assignment",
                Json::arr(self.assignment.iter().map(|&a| Json::from(a))),
            ),
            ("ecost", Json::from(self.ecost)),
            ("lower_bound", Json::from(self.lower_bound)),
            ("method", Json::from(self.method.as_str())),
        ])
    }

    /// The centers as library points.
    pub fn center_points(&self) -> Vec<Point> {
        self.centers.iter().map(|c| Point::new(c.clone())).collect()
    }
}

/// The instrumentation [`Report`] as one JSON object: method, lower
/// bound, per-stage timings in seconds, per-stage distance-evaluation
/// counts, and — for warm-started solves only — the `warm` object
/// (reused centers, evals saved, skipped stages, and the typed fallback
/// reason when the prior could not be reused). Cold solves omit `warm`
/// entirely, so pre-incremental documents are byte-identical.
pub fn report_json(report: &Report) -> Json {
    let secs = |d: std::time::Duration| Json::from(d.as_secs_f64());
    let mut doc = Json::obj([
        ("method", Json::from(report.method.as_str())),
        (
            "lower_bound",
            report.lower_bound.map_or(Json::Null, Json::from),
        ),
        (
            "timings_seconds",
            Json::obj([
                ("representatives", secs(report.timings.representatives)),
                ("certain_solve", secs(report.timings.certain_solve)),
                ("assignment", secs(report.timings.assignment)),
                ("cost", secs(report.timings.cost)),
                ("lower_bound", secs(report.timings.lower_bound)),
                ("total", secs(report.timings.total)),
            ]),
        ),
        (
            "distance_evals",
            Json::obj([
                (
                    "representatives",
                    Json::from(report.distance_evals.representatives as f64),
                ),
                (
                    "certain_solve",
                    Json::from(report.distance_evals.certain_solve as f64),
                ),
                (
                    "assignment",
                    Json::from(report.distance_evals.assignment as f64),
                ),
                ("cost", Json::from(report.distance_evals.cost as f64)),
                (
                    "lower_bound",
                    Json::from(report.distance_evals.lower_bound as f64),
                ),
                ("pruned", Json::from(report.distance_evals.pruned as f64)),
                ("total", Json::from(report.distance_evals.total() as f64)),
            ]),
        ),
    ]);
    if let (Json::Obj(pairs), Some(warm)) = (&mut doc, &report.warm) {
        pairs.push((
            "warm".into(),
            Json::obj([
                ("reused_centers", Json::from(warm.reused_centers)),
                ("evals_saved", Json::from(warm.evals_saved as f64)),
                (
                    "stages_skipped",
                    Json::arr(warm.stages_skipped.iter().map(|s| Json::from(*s))),
                ),
                ("fallback", warm.fallback.map_or(Json::Null, Json::from)),
            ]),
        ));
    }
    doc
}

/// A solved [`Solution`] as one JSON document: the [`JsonSolution`] disk
/// schema plus `certain_radius` and the instrumentation `report`. The
/// CLI's `--format json` output and the server's solve responses are both
/// this document.
pub fn solution_document(sol: &Solution<Point>) -> Json {
    let disk = JsonSolution {
        centers: sol.centers.iter().map(|c| c.coords().to_vec()).collect(),
        assignment: sol.assignment.clone(),
        ecost: sol.ecost,
        lower_bound: sol.report.lower_bound.unwrap_or(0.0),
        method: sol.report.method.clone(),
    };
    let mut doc = disk.to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("certain_radius".into(), Json::from(sol.certain_radius)));
        pairs.push(("report".into(), report_json(&sol.report)));
    }
    doc
}

/// A leave-one-out sweep as one JSON document: `base` (the caller's
/// rendering of the base solution), one entry per variant, and the
/// sweep's totals. `ukc loo --format json` and the server's `solve_loo`
/// responses are both this document.
pub fn loo_document(loo: &LooReport, base: Json) -> Json {
    let variants = loo.variants.iter().map(|v| {
        Json::obj([
            ("removed", Json::from(v.removed)),
            ("ecost", Json::from(v.ecost)),
            ("certain_radius", Json::from(v.certain_radius)),
            ("reused", Json::from(v.reused)),
            ("distance_evals", Json::from(v.distance_evals as f64)),
        ])
    });
    Json::obj([
        ("base", base),
        ("variants", Json::arr(variants)),
        ("count", Json::from(loo.variants.len())),
        ("reused_variants", Json::from(loo.reused_variants)),
        ("resolved_variants", Json::from(loo.resolved_variants)),
        ("distance_evals", Json::from(loo.distance_evals as f64)),
    ])
}

/// Cluster wire forms: the registry/status documents that `ukc-cluster`,
/// the server's `/cluster/*` endpoints, and `ukc cluster status` all
/// share, so a node description rendered by one surface parses on any
/// other.
pub mod cluster {
    use super::FormatError;
    use crate::Json;

    /// One registry node on the wire.
    ///
    /// ```json
    /// { "id": 0, "addr": "127.0.0.1:8891",
    ///   "prefix_start": 0, "prefix_end": 32768, "state": "alive" }
    /// ```
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct JsonNode {
        /// Registry-assigned stable node ID.
        pub id: usize,
        /// The node's base address (`host:port`).
        pub addr: String,
        /// First owned digest prefix (inclusive).
        pub prefix_start: u32,
        /// One past the last owned digest prefix (exclusive).
        pub prefix_end: u32,
        /// Liveness as last observed (`"alive"` / `"down"`).
        pub state: String,
    }

    impl JsonNode {
        /// The node's JSON document.
        pub fn to_json(&self) -> Json {
            Json::obj([
                ("id", Json::from(self.id)),
                ("addr", Json::from(self.addr.as_str())),
                ("prefix_start", Json::from(self.prefix_start as usize)),
                ("prefix_end", Json::from(self.prefix_end as usize)),
                ("state", Json::from(self.state.as_str())),
            ])
        }

        /// Parses one node document.
        pub fn from_json(doc: &Json) -> Result<Self, FormatError> {
            let schema = |what: &str| FormatError::Schema(format!("node document: {what}"));
            let uint = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| schema(&format!("{key:?} must be a non-negative integer")))
            };
            Ok(JsonNode {
                id: uint("id")?,
                addr: doc
                    .get("addr")
                    .and_then(Json::as_str)
                    .ok_or_else(|| schema("\"addr\" must be a string"))?
                    .to_string(),
                prefix_start: uint("prefix_start")? as u32,
                prefix_end: uint("prefix_end")? as u32,
                state: doc
                    .get("state")
                    .and_then(Json::as_str)
                    .ok_or_else(|| schema("\"state\" must be a string"))?
                    .to_string(),
            })
        }
    }

    /// A whole `/cluster/status` document.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct JsonClusterStatus {
        /// The serving role (`"single"` or `"coordinator"`).
        pub role: String,
        /// Registry nodes in range order (empty in single mode).
        pub nodes: Vec<JsonNode>,
    }

    impl JsonClusterStatus {
        /// The status JSON document.
        pub fn to_json(&self) -> Json {
            Json::obj([
                ("role", Json::from(self.role.as_str())),
                ("nodes", Json::arr(self.nodes.iter().map(JsonNode::to_json))),
            ])
        }

        /// Parses a status document (tolerates extra sibling fields such
        /// as replication gauges).
        pub fn from_json(doc: &Json) -> Result<Self, FormatError> {
            let role = doc
                .get("role")
                .and_then(Json::as_str)
                .ok_or_else(|| FormatError::Schema("status: \"role\" must be a string".into()))?
                .to_string();
            let nodes = doc
                .get("nodes")
                .and_then(Json::as_array)
                .ok_or_else(|| FormatError::Schema("status: \"nodes\" must be an array".into()))?
                .iter()
                .map(JsonNode::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(JsonClusterStatus { role, nodes })
        }

        /// Parses a status document from text.
        pub fn parse(text: &str) -> Result<Self, FormatError> {
            let doc = Json::parse(text).map_err(|e| FormatError::Schema(e.to_string()))?;
            Self::from_json(&doc)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn node_and_status_roundtrip() {
            let status = JsonClusterStatus {
                role: "coordinator".into(),
                nodes: vec![
                    JsonNode {
                        id: 0,
                        addr: "127.0.0.1:8891".into(),
                        prefix_start: 0,
                        prefix_end: 32768,
                        state: "alive".into(),
                    },
                    JsonNode {
                        id: 1,
                        addr: "127.0.0.1:8892".into(),
                        prefix_start: 32768,
                        prefix_end: 65536,
                        state: "down".into(),
                    },
                ],
            };
            let back = JsonClusterStatus::parse(&status.to_json().pretty()).unwrap();
            assert_eq!(back, status);
        }

        #[test]
        fn extra_fields_are_tolerated_on_status() {
            let text = r#"{"role": "single", "nodes": [], "replicated_instances": 3}"#;
            let status = JsonClusterStatus::parse(text).unwrap();
            assert_eq!(status.role, "single");
            assert!(status.nodes.is_empty());
        }

        #[test]
        fn schema_errors_are_typed() {
            assert!(matches!(
                JsonClusterStatus::parse(r#"{"nodes": []}"#),
                Err(FormatError::Schema(_))
            ));
            assert!(matches!(
                JsonNode::from_json(&Json::parse(r#"{"id": 0}"#).unwrap()),
                Err(FormatError::Schema(_))
            ));
            assert!(matches!(
                JsonNode::from_json(&Json::parse(r#"{"id": -1, "addr": "x"}"#).unwrap()),
                Err(FormatError::Schema(_))
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_uncertain::generators::{clustered, ProbModel};

    #[test]
    fn roundtrip_preserves_instance() {
        let set = clustered(3, 8, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        let json = JsonInstance::from_set(&set);
        let text = json.to_json().pretty();
        let parsed = JsonInstance::parse(&text).unwrap();
        let back = parsed.to_set().unwrap();
        // Locations roundtrip exactly (shortest round-trip float
        // formatting); probabilities are re-normalized at construction,
        // which can shift the last ulp — compare those within 1e-15.
        assert_eq!(set.n(), back.n());
        for (a, b) in set.iter().zip(back.iter()) {
            assert_eq!(a.locations(), b.locations());
            for (pa, pb) in a.probs().iter().zip(b.probs().iter()) {
                assert!((pa - pb).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn verbatim_roundtrip_preserves_probs_bit_for_bit() {
        // Random distributions rarely sum to exactly 1.0 after the
        // constructor's normalizing divide, so `to_set` shifts them by
        // an ulp on every round-trip. The verbatim path must not: the
        // durable store's recovery digest check depends on it.
        let set = clustered(9, 100, 3, 2, 4, 5.0, 1.5, ProbModel::Random);
        let text = JsonInstance::from_set(&set).to_json().compact();
        let back = JsonInstance::parse(&text)
            .unwrap()
            .to_set_verbatim()
            .unwrap();
        assert_eq!(set.n(), back.n());
        for (a, b) in set.iter().zip(back.iter()) {
            assert_eq!(a.locations(), b.locations());
            assert_eq!(a.probs(), b.probs());
        }
        assert_eq!(ukc_core::digest_set(&set), ukc_core::digest_set(&back));
    }

    #[test]
    fn solution_roundtrips() {
        let sol = JsonSolution {
            centers: vec![vec![0.5, -1.25], vec![3.0, 4.0]],
            assignment: vec![0, 1, 1, 0],
            ecost: 1.75,
            lower_bound: 0.5,
            method: "ep+gonzalez".into(),
        };
        let text = sol.to_json().pretty();
        let back = JsonSolution::parse(&text).unwrap();
        assert_eq!(back.centers, sol.centers);
        assert_eq!(back.assignment, sol.assignment);
        assert_eq!(back.ecost, sol.ecost);
        assert_eq!(back.lower_bound, sol.lower_bound);
        assert_eq!(back.method, sol.method);
    }

    #[test]
    fn rejects_dim_mismatch() {
        let j = JsonInstance {
            dim: 2,
            points: vec![JsonPoint {
                locations: vec![vec![1.0, 2.0], vec![3.0]],
                probs: vec![0.5, 0.5],
            }],
        };
        assert!(matches!(
            j.to_set(),
            Err(FormatError::DimMismatch {
                point: 0,
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn rejects_bad_probs() {
        let j = JsonInstance {
            dim: 1,
            points: vec![JsonPoint {
                locations: vec![vec![1.0]],
                probs: vec![0.4],
            }],
        };
        assert!(matches!(
            j.to_set(),
            Err(FormatError::BadPoint { point: 0, .. })
        ));
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        let j = JsonInstance {
            dim: 1,
            points: vec![],
        };
        assert!(matches!(j.to_set(), Err(FormatError::Empty)));
        let j = JsonInstance {
            dim: 1,
            points: vec![JsonPoint {
                locations: vec![vec![f64::NAN]],
                probs: vec![1.0],
            }],
        };
        assert!(matches!(
            j.to_set(),
            Err(FormatError::NonFinite { point: 0 })
        ));
    }

    #[test]
    fn solution_document_roundtrips_and_carries_report() {
        let set = clustered(5, 10, 3, 2, 2, 4.0, 1.0, ProbModel::Random);
        let problem = ukc_core::Problem::euclidean(set, 2).unwrap();
        let sol = problem.solve(&ukc_core::SolverConfig::default()).unwrap();
        let doc = solution_document(&sol);
        // The document embeds the JsonSolution schema exactly and is
        // parseable back through it.
        let parsed = JsonSolution::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed.ecost, sol.ecost);
        assert_eq!(parsed.assignment, sol.assignment);
        assert_eq!(parsed.method, sol.report.method);
        // Plus the extras: certain_radius and the full report.
        assert_eq!(
            doc.get("certain_radius").and_then(Json::as_f64),
            Some(sol.certain_radius)
        );
        let report = doc.get("report").unwrap();
        assert_eq!(
            report.get("method").and_then(Json::as_str),
            Some(sol.report.method.as_str())
        );
        assert!(report
            .get("distance_evals")
            .and_then(|d| d.get("total"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn rejects_schema_errors() {
        assert!(matches!(
            JsonInstance::parse("{\"points\": []}"),
            Err(FormatError::Schema(_))
        ));
        assert!(matches!(
            JsonInstance::parse("not json"),
            Err(FormatError::Schema(_))
        ));
        assert!(matches!(
            JsonSolution::parse("{\"centers\": [[0]], \"assignment\": [0.5], \"ecost\": 1}"),
            Err(FormatError::Schema(_))
        ));
    }
}
