//! # ukc-stream — memory-bounded streaming uncertain k-center
//!
//! The uncertain k-center model is exactly the regime where points
//! arrive continuously — sensor readings, noisy location feeds — yet a
//! batch [`ukc_core::Problem`] needs the whole instance in memory. This
//! crate makes streaming a first-class subsystem: a doubling/coreset
//! summary ([`StreamSummary`]) holds an O(budget)-point working set on a
//! [`ukc_metric::PointStore`] with batched kernel distance evaluation
//! and pool-driven merge phases, and [`StreamSolver`] runs the paper's
//! replace-by-representative pipeline over it online — expected points
//! in, certified k-center solutions out, whatever the stream length.
//!
//! The three layers:
//!
//! * [`StreamSummary`] — the state: weighted doubling summary with the
//!   coverage (`≤ 4τ`) and separation (`> τ`) invariants, truncation +
//!   compaction keeping the store at `≤ budget + 1` rows, and a
//!   canonical [`StreamSummary::digest`] that is **bit-identical across
//!   pool lane counts** — the property serving layers key incremental
//!   re-solve caches on.
//! * [`StreamSolver`] — the API: [`ukc_core::SolverConfig`]-driven,
//!   typed [`ukc_core::SolveError`]s, per-epoch [`EpochReport`]s with
//!   eval counts and the memory high-water mark, and snapshot
//!   finalization ([`StreamSolver::solution`]) through the configured
//!   certain strategy.
//! * The serving integration: `ukc-server` exposes `POST /streams`,
//!   `POST /streams/{id}/push`, and `GET /streams/{id}/solution`
//!   (incremental re-solve through the scheduler, cached on the
//!   digest), and the CLI ingests line-delimited JSON via `ukc stream`.
//!
//! ```
//! use ukc_core::SolverConfig;
//! use ukc_stream::StreamSolver;
//! use ukc_uncertain::generators::{clustered, ProbModel};
//!
//! let mut solver = StreamSolver::new(3, SolverConfig::default()).unwrap();
//! let feed = clustered(7, 500, 3, 2, 3, 6.0, 1.0, ProbModel::Random);
//! for chunk in feed.points().chunks(64) {
//!     let epoch = solver.push_chunk(chunk).unwrap();
//!     assert!(epoch.summary_len <= solver.budget());
//! }
//! let solution = solver.solution().unwrap();
//! assert_eq!(solution.centers.len(), 3);
//! // Memory stayed bounded by the budget + one chunk, not the stream.
//! assert!(solution.stream.memory_peak_points < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod solver;
pub mod summary;

pub use solver::{
    EpochReport, SolverSnapshot, StreamReport, StreamSolution, StreamSolver, StreamSolverBuilder,
    DEFAULT_BUDGET_PER_CENTER,
};
pub use summary::{StreamSummary, SummarySnapshot};
