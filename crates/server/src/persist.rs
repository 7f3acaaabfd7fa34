//! Persistence glue: the serving layer's side of the durability
//! contract.
//!
//! `ukc-durable` stores opaque bytes; this module owns what those bytes
//! *mean* — the snapshot payload encoding of an evolved
//! [`StreamSolver`], and boot-time recovery that rebuilds the in-memory
//! stores from a [`Recovery`].
//!
//! Recovery's bit-identity rests on two legs:
//!
//! * **WAL replay** re-parses the stored *wire bodies* through the same
//!   [`crate::api`] path the live server ran and folds them with
//!   [`StreamSolver::push_chunk`] — identical input through a
//!   deterministic fold gives identical state.
//! * **Snapshots** short-circuit the replay: the payload restores the
//!   summary from IEEE bit patterns, and the restored digest is checked
//!   against the digest recorded at snapshot time. A mismatch — or any
//!   gap in the surviving epoch sequence — is a typed
//!   [`StoreError::CorruptSegment`] at boot, never a silently wrong
//!   state.

use std::path::Path;

use crate::api;
use crate::store::InstanceStore;
use crate::streams::StreamStore;
use ukc_durable::codec::{Decoder, Encoder};
use ukc_durable::{Recovery, StoreError};
use ukc_json::format::JsonInstance;
use ukc_stream::{SolverSnapshot, StreamSolver, SummarySnapshot};

/// What boot-time recovery rebuilt, surfaced under `/metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Instances rebuilt from the segment store.
    pub instances: u64,
    /// Streams rebuilt from the WAL.
    pub streams: u64,
    /// Push epochs re-folded (the WAL tail past each snapshot).
    pub replayed_epochs: u64,
    /// Streams whose state was restored from a snapshot instead of a
    /// full replay.
    pub snapshot_restores: u64,
    /// Whether a torn (unacknowledged) WAL tail was dropped.
    pub torn_tail: bool,
}

/// Encodes a solver snapshot into the opaque payload stored by
/// [`ukc_durable::snapshot::SnapshotStore`]. Floats travel as IEEE bit
/// patterns so the restore is exact.
pub fn encode_snapshot(snap: &SolverSnapshot) -> Vec<u8> {
    let s = &snap.summary;
    let mut e = Encoder::new();
    e.put_u64(snap.epochs)
        .put_u64(snap.memory_peak as u64)
        .put_u64(s.budget as u64)
        .put_u64(s.dim as u64)
        .put_f64(s.threshold)
        .put_u64(s.seen)
        .put_u64(s.merges)
        .put_u64(s.distance_evals)
        .put_u64(s.peak_rows as u64)
        .put_u64(s.centers.len() as u64);
    for (center, &weight) in s.centers.iter().zip(&s.weights) {
        for &c in center {
            e.put_f64(c);
        }
        e.put_u64(weight);
    }
    e.finish()
}

/// Decodes a snapshot payload; `None` on any structural damage (the
/// caller treats that as corruption — the payload sits behind a CRC, so
/// a clean-CRC-but-undecodable payload is not a crash artifact).
pub fn decode_snapshot(bytes: &[u8]) -> Option<SolverSnapshot> {
    let mut d = Decoder::new(bytes);
    let epochs = d.u64()?;
    let memory_peak = usize::try_from(d.u64()?).ok()?;
    let budget = usize::try_from(d.u64()?).ok()?;
    let dim = usize::try_from(d.u64()?).ok()?;
    let threshold = d.f64()?;
    let seen = d.u64()?;
    let merges = d.u64()?;
    let distance_evals = d.u64()?;
    let peak_rows = usize::try_from(d.u64()?).ok()?;
    let len = usize::try_from(d.u64()?).ok()?;
    // Cap against nonsense lengths before allocating.
    if len > bytes.len() {
        return None;
    }
    let mut centers = Vec::with_capacity(len);
    let mut weights = Vec::with_capacity(len);
    for _ in 0..len {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(d.f64()?);
        }
        centers.push(coords);
        weights.push(d.u64()?);
    }
    if !d.is_exhausted() {
        return None;
    }
    Some(SolverSnapshot {
        epochs,
        memory_peak,
        summary: SummarySnapshot {
            budget,
            dim,
            threshold,
            seen,
            merges,
            distance_evals,
            peak_rows,
            centers,
            weights,
        },
    })
}

fn corrupt(dir: &Path, detail: String) -> StoreError {
    StoreError::CorruptSegment {
        path: dir.to_path_buf(),
        offset: 0,
        detail,
    }
}

/// Rebuilds the in-memory stores from a [`Recovery`]. Every rebuilt
/// stream's digest is bit-identical to its pre-crash state (see module
/// docs); anything that cannot be rebuilt faithfully is a typed error.
pub fn recover(
    dir: &Path,
    recovery: &Recovery,
    store: &InstanceStore,
    streams: &StreamStore,
) -> Result<RecoveryStats, StoreError> {
    let mut stats = RecoveryStats {
        torn_tail: recovery.torn_tail,
        ..RecoveryStats::default()
    };

    for (digest, doc) in &recovery.instances {
        // `to_set_verbatim`, not `to_set`: the stored canonical doc holds
        // probabilities the live server already normalized, and
        // renormalizing them is not bit-idempotent — the digest check
        // below would reject perfectly good segments by an ulp.
        let set = api::parse_body(doc)
            .and_then(|json| JsonInstance::from_json(&json).map_err(Into::into))
            .and_then(|instance| instance.to_set_verbatim().map_err(Into::into))
            .map_err(|e| corrupt(dir, format!("stored instance does not parse: {e}")))?;
        let recomputed = ukc_core::digest_set(&set);
        if recomputed != *digest {
            return Err(corrupt(
                dir,
                format!("stored instance digests to {recomputed:016x}, segment says {digest:016x}"),
            ));
        }
        store.insert(set);
        stats.instances += 1;
    }

    for stream in &recovery.streams {
        let (solve, budget) = api::parse_body(&stream.create)
            .and_then(|json| api::parse_stream_create(&json))
            .map_err(|e| {
                corrupt(
                    dir,
                    format!("stream {} create record does not parse: {e}", stream.seq),
                )
            })?;
        let mut builder = StreamSolver::builder(solve.k).config(solve.config.clone());
        if let Some(budget) = budget {
            builder = builder.budget(budget);
        }
        let mut solver = builder.build().map_err(|e| {
            corrupt(
                dir,
                format!("stream {} create record rejected: {e}", stream.seq),
            )
        })?;

        let mut expected_epoch = 1u64;
        if let Some(snapshot) = &stream.snapshot {
            let decoded = decode_snapshot(&snapshot.payload).ok_or_else(|| {
                corrupt(
                    dir,
                    format!("stream {} snapshot payload does not decode", stream.seq),
                )
            })?;
            if !solver.restore(&decoded) || solver.digest() != snapshot.digest {
                return Err(corrupt(
                    dir,
                    format!(
                        "stream {} snapshot does not restore to digest {:016x}",
                        stream.seq, snapshot.digest
                    ),
                ));
            }
            expected_epoch = snapshot.epochs + 1;
            stats.snapshot_restores += 1;
        }

        for (epoch, body) in &stream.pushes {
            // The surviving epochs must be exactly the contiguous tail
            // past the snapshot: a gap means acknowledged data is gone
            // (e.g. a snapshot file lost after its WAL records were
            // compacted away), which must fail loudly, not replay to a
            // silently different state.
            if *epoch != expected_epoch {
                return Err(corrupt(
                    dir,
                    format!(
                        "stream {} wal resumes at epoch {epoch}, expected {expected_epoch}",
                        stream.seq
                    ),
                ));
            }
            expected_epoch += 1;
            let chunk = api::parse_body(body)
                .and_then(|json| JsonInstance::from_json(&json).map_err(Into::into))
                .and_then(|instance| instance.to_set().map_err(Into::into))
                .map_err(|e| {
                    corrupt(
                        dir,
                        format!("stream {} epoch {epoch} does not parse: {e}", stream.seq),
                    )
                })?;
            solver.push_chunk(chunk.points()).map_err(|e| {
                corrupt(
                    dir,
                    format!("stream {} epoch {epoch} does not replay: {e}", stream.seq),
                )
            })?;
            stats.replayed_epochs += 1;
        }

        streams.restore(stream.seq, solver, solve.use_cache);
        stats.streams += 1;
    }

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukc_core::SolverConfig;
    use ukc_metric::Point;
    use ukc_uncertain::UncertainPoint;

    fn evolved_solver() -> StreamSolver {
        let mut solver = StreamSolver::builder(2).budget(5).build().unwrap();
        let points: Vec<UncertainPoint<Point>> = (0..40)
            .map(|i| {
                UncertainPoint::new(
                    vec![
                        Point::new(vec![f64::from(i), 0.25]),
                        Point::new(vec![f64::from(i), 1.75]),
                    ],
                    vec![0.5, 0.5],
                )
                .unwrap()
            })
            .collect();
        solver.push_chunk(&points).unwrap();
        solver
    }

    #[test]
    fn snapshot_payload_round_trips_exactly() {
        let solver = evolved_solver();
        let snap = solver.snapshot();
        let bytes = encode_snapshot(&snap);
        let decoded = decode_snapshot(&bytes).expect("payload decodes");
        assert_eq!(decoded, snap);
        // And restoring the decoded snapshot reproduces the digest.
        let mut rebuilt = StreamSolver::builder(2)
            .config(SolverConfig::default())
            .budget(5)
            .build()
            .unwrap();
        assert!(rebuilt.restore(&decoded));
        assert_eq!(rebuilt.digest(), solver.digest());
    }

    #[test]
    fn truncated_payloads_decode_to_none() {
        let bytes = encode_snapshot(&evolved_solver().snapshot());
        for cut in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is rejected too (payloads are exact).
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_snapshot(&padded).is_none());
    }
}
