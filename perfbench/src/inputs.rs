//! Input generation shared by the workloads.
//!
//! Each workload's dataset is one pinned `Dataset::generate` instance; the
//! benchmark's `--seed` relabels its vertices with a seeded permutation
//! (and, for the serving workloads, drives the request stream). Freshly
//! generated stand-ins differ too much in work from seed to seed to judge
//! a change by: Greedy over the email-Enron stand-in (scale 0.2, T = 30)
//! took 0.51-0.93 s across seeds 1-8 on the reference host. A relabeled
//! instance keeps the structure and changes the ids, and with them memory
//! layout, K-order tie-breaks and which vertices requests name.

use avt_datasets::Dataset;
use avt_graph::{EdgeBatch, EvolvingGraph, Graph, VertexId};

/// The generator seed every workload's dataset is pinned to.
const DATASET_SEED: u64 = 42;

/// SplitMix64: small, fast, and a pure function of its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xA5A5_0F0F_5A5A_F0F0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `dataset` at `scale` with `snapshots` snapshots, its vertices relabeled
/// by a permutation drawn from `seed`.
pub fn generate(dataset: Dataset, scale: f64, snapshots: usize, seed: u64) -> EvolvingGraph {
    let eg = dataset.generate(scale, snapshots, DATASET_SEED);
    let n = eg.num_vertices();
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        label.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let map = |u: VertexId, v: VertexId| (label[u as usize], label[v as usize]);
    let initial = Graph::from_edges(n, eg.initial().edges().map(|e| map(e.u, e.v)))
        .expect("a relabeled simple graph stays simple");
    let batches = eg
        .batches()
        .iter()
        .map(|b| {
            EdgeBatch::from_pairs(
                b.insertions.iter().map(|e| map(e.u, e.v)),
                b.deletions.iter().map(|e| map(e.u, e.v)),
            )
        })
        .collect();
    EvolvingGraph::with_batches(initial, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avt_kcore::CoreSpectrum;

    #[test]
    fn relabeling_keeps_structure_and_follows_the_seed() {
        let a = generate(Dataset::EmailEnron, 0.005, 3, 1);
        let b = generate(Dataset::EmailEnron, 0.005, 3, 1);
        let c = generate(Dataset::EmailEnron, 0.005, 3, 2);
        assert!(a.initial().is_isomorphic_identity(b.initial()));
        assert!(!a.initial().is_isomorphic_identity(c.initial()));
        a.validate().unwrap();
        c.validate().unwrap();
        for t in 1..=3 {
            let (sa, sc) = (a.snapshot(t).unwrap(), c.snapshot(t).unwrap());
            assert_eq!(sa.num_edges(), sc.num_edges());
            assert_eq!(CoreSpectrum::of(&sa).shells(), CoreSpectrum::of(&sc).shells());
        }
    }
}
