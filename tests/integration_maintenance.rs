//! Stress tests of the incremental K-order maintenance over realistic
//! dataset churn (the workload IncAVT actually runs on), verified against
//! scratch recomputation at every snapshot.

use avt::datasets::Dataset;
use avt::graph::GraphView;
use avt::kcore::{CoreDecomposition, MaintainedCore};
use avt_kcore::verify::assert_korder_valid;

fn run_dataset(ds: Dataset, scale: f64, snapshots: usize, seed: u64) {
    let eg = ds.generate(scale, snapshots, seed);
    let mut mc = MaintainedCore::new(eg.initial().clone());
    for (t, frame) in eg.frames() {
        if t > 1 {
            let batch = eg.batch(t - 1).expect("batch exists");
            mc.apply_batch(batch).expect("batch applies");
        }
        let fresh = CoreDecomposition::compute(&frame);
        for v in frame.vertices() {
            assert_eq!(
                mc.core(v),
                fresh.core(v),
                "{}: core mismatch at t={t}, vertex {v}",
                ds.spec().name
            );
        }
        assert_korder_valid(mc.graph(), mc.korder());
    }
}

#[test]
fn churn_dataset_maintenance_stays_exact() {
    // Hub-heavy churn (the regime where promotion cascades happen).
    run_dataset(Dataset::Deezer, 0.01, 8, 3);
}

#[test]
fn flat_dataset_maintenance_stays_exact() {
    run_dataset(Dataset::Gnutella, 0.01, 8, 4);
}

#[test]
fn temporal_dataset_maintenance_survives_heavy_batches() {
    // Temporal streams produce large E+/E- batches (window turnover) —
    // the hardest case for maintenance.
    run_dataset(Dataset::CollegeMsg, 0.05, 8, 5);
}

#[test]
fn dense_temporal_dataset_maintenance() {
    run_dataset(Dataset::EuCore, 0.02, 6, 6);
}

#[test]
fn maintenance_visited_is_far_below_rebuild_cost() {
    // The §5.2 claim in miniature: maintaining across T snapshots must
    // visit far fewer vertices than T full rebuilds would.
    let ds = Dataset::EmailEnron;
    let eg = ds.generate(0.02, 20, 7);
    let mut mc = MaintainedCore::new(eg.initial().clone());
    for batch in eg.batches() {
        mc.apply_batch(batch).expect("batch applies");
    }
    // A rebuild is O(n + m): it touches every vertex and scans every
    // adjacency list from both sides.
    let per_rebuild = eg.num_vertices() + 2 * eg.initial().num_edges();
    let rebuild_cost = (eg.num_snapshots() * per_rebuild) as u64;
    assert!(
        mc.visited_vertices() < rebuild_cost / 2,
        "maintenance visited {} vertices, rebuilds would touch {}",
        mc.visited_vertices(),
        rebuild_cost
    );
}
