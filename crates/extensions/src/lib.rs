//! # ukc-extensions — the paper's future-work directions, implemented
//!
//! The paper's conclusion announces: *"In a future work, we intend to use
//! our approach to study the k-median and the k-mean problems."* This
//! crate carries that program out, because for the **assigned** versions
//! both objectives decompose exactly — the replace-by-representative
//! approach is not merely approximate there, it is *lossless*:
//!
//! * **Uncertain k-median** ([`kmedian`]): by linearity of expectation the
//!   assigned expected cost `Σ_R prob(R)·Σᵢ d(P̂ᵢ, A(Pᵢ))` equals
//!   `Σᵢ E d(Pᵢ, A(Pᵢ))` — so the problem *is* a deterministic k-median
//!   over the expected-distance matrix, with the ED rule as the optimal
//!   assignment. We provide exact (small instances) and local-search
//!   solvers over that reduction.
//! * **Uncertain k-means** ([`kmeans`]): the classical bias–variance
//!   identity `E‖P̂ − c‖² = ‖P̄ − c‖² + Var(P)` splits the assigned
//!   expected cost into a deterministic k-means instance on the expected
//!   points plus an irreducible variance floor. Lloyd's algorithm with
//!   k-means++ seeding solves the reduced instance; the identity itself is
//!   property-tested against enumeration.
//! * **Streaming k-center** ([`streaming`]): the doubling algorithm of
//!   Charikar et al. maintains an 8-approximate k-center summary in one
//!   pass; feeding it the O(z)-computable expected points extends the
//!   paper's pipeline to streams, the setting of the
//!   Munteanu–Sohler–Feldman reference \[25\]. Uncertain streams are
//!   served by the dedicated `ukc-stream` crate (memory-bounded working
//!   sets, epoch instrumentation, server + CLI integration); the generic
//!   [`StreamingKCenter`] kept here is the reference its summary is
//!   pinned against bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configured;
pub mod kmeans;
pub mod kmedian;
pub mod streaming;

pub use configured::{uncertain_kmeans_configured, uncertain_kmedian};
pub use kmeans::{uncertain_kmeans, variance, KMeansSolution};
pub use kmedian::{
    ecost_kmedian, uncertain_kmedian_exact, uncertain_kmedian_local_search, KMedianSolution,
};
pub use streaming::StreamingKCenter;
