//! Max core degree (Definition 6 of the paper).

use avt_graph::{GraphView, VertexId};

/// `mcd(u)`: the number of `u`'s neighbours whose core number is at least
/// `core(u)`. Always `mcd(u) >= core(u)` in a consistent state; a deletion
/// that pushes `mcd(u)` below `core(u)` forces a core decrement (Lemma 4).
pub fn max_core_degree<G: GraphView>(graph: &G, cores: &[u32], u: VertexId) -> u32 {
    let cu = cores[u as usize];
    graph.neighbors(u).iter().filter(|&&w| cores[w as usize] >= cu).count() as u32
}

/// `mcd` for every vertex in one pass. O(n + m).
pub fn max_core_degrees<G: GraphView>(graph: &G, cores: &[u32]) -> Vec<u32> {
    graph.vertices().map(|u| max_core_degree(graph, cores, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::CoreDecomposition;
    use avt_graph::Graph;

    #[test]
    fn mcd_of_paper_example() {
        // Triangle 0-1-2 (core 2) with pendant 3 (core 1) attached to 2.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        // Vertex 3: one neighbour (2) with core 2 >= core(3)=1 -> mcd = 1.
        assert_eq!(max_core_degree(&g, d.cores(), 3), 1);
        // Vertex 2: neighbours 0,1 (core 2) count, 3 (core 1) does not.
        assert_eq!(max_core_degree(&g, d.cores(), 2), 2);
    }

    #[test]
    fn mcd_always_at_least_core() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let n = 40;
        let mut g = Graph::new(n);
        for _ in 0..120 {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            if u != v && !g.has_edge(u, v) {
                g.insert_edge(u, v).unwrap();
            }
        }
        let d = CoreDecomposition::compute(&g);
        let mcd = max_core_degrees(&g, d.cores());
        for v in g.vertices() {
            assert!(
                mcd[v as usize] >= d.core(v),
                "mcd({v}) = {} < core = {}",
                mcd[v as usize],
                d.core(v)
            );
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        let all = max_core_degrees(&g, d.cores());
        for v in g.vertices() {
            assert_eq!(all[v as usize], max_core_degree(&g, d.cores(), v));
        }
    }
}
