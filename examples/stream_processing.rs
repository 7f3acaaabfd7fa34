//! Streaming uncertain k-center with bounded memory: clustering a long
//! feed of uncertain points through the `ukc-stream` subsystem (paper
//! future-work direction; reference [25] in its bibliography covers the
//! streaming probabilistic 1-center).
//!
//! The doubling/coreset summary keeps an O(budget)-point working set
//! whatever the stream length; finalization runs the configured certain
//! solver on the weighted summary and certifies radius bounds; no seen
//! point is retained.
//!
//! ```text
//! cargo run --release --example stream_processing
//! ```

use uncertain_kcenter::prelude::*;

fn main() {
    let k = 4;
    // A long stream of uncertain sensor sightings arriving in chunks.
    let stream = clustered(77, 5_000, 4, 2, 4, 6.0, 1.5, ProbModel::Random);

    // The streaming solver takes the same SolverConfig as the offline
    // pipeline; its strategy drives the finalize solve on the summary.
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .lower_bound(false)
        .build()
        .expect("valid config");
    let mut solver = StreamSolver::builder(k)
        .config(config.clone())
        .budget(8 * k)
        .build()
        .expect("k > 0");

    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10}",
        "seen", "summary", "Ecost", "vs offline", "peak mem"
    );
    for (i, chunk) in stream.points().chunks(250).enumerate() {
        let epoch = solver.push_chunk(chunk).expect("chunk is valid");
        if !(i + 1).is_multiple_of(5) {
            continue;
        }
        // Checkpoint: finalize the stream (a snapshot — ingestion
        // continues) and evaluate its centers offline on the prefix.
        let solution = solver.solution().expect("non-empty");
        let seen = solution.stream.points as usize;
        let prefix = UncertainSet::new(stream.points()[..seen].to_vec());
        let assignment = assign_ed(
            &prefix,
            &solution.centers,
            None,
            &Euclidean,
            Exec::sequential(),
        );
        let streamed_cost = ecost_assigned(&prefix, &solution.centers, &assignment, &Euclidean);
        let offline = Problem::euclidean(prefix, k)
            .expect("valid prefix")
            .solve(&config)
            .expect("ED rule is Euclidean-supported");
        println!(
            "{seen:>8} {:>8} {streamed_cost:>12.4} {:>12.3} {:>10}",
            epoch.summary_len,
            streamed_cost / offline.ecost,
            solution.stream.memory_peak_points,
        );
    }

    let report = solver.report();
    println!(
        "\nthe summary held at most {} of {} points ({} epochs, digest {});\n\
         each insertion cost O(z + budget), independent of the stream length.",
        report.memory_peak_points,
        report.points,
        report.epochs,
        uncertain_kcenter::core::digest_hex(report.digest),
    );
}
