//! Dataset statistics (Table 2 of the paper).

use crate::{GraphView, VertexId};

/// Summary statistics for one graph snapshot, mirroring the columns of the
/// paper's Table 2 plus a few structural extras used in tests and the
/// experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Average degree `2m/n`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Number of connected components (isolated vertices each count as one).
    pub components: usize,
    /// Size of the largest connected component.
    pub largest_component: usize,
}

impl GraphStats {
    /// Compute statistics for `graph` (any substrate). O(n + m).
    pub fn compute<G: GraphView>(graph: &G) -> GraphStats {
        let n = graph.num_vertices();
        let mut seen = vec![false; n];
        let mut components = 0usize;
        let mut largest = 0usize;
        let mut stack: Vec<VertexId> = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start as VertexId);
            let mut size = 0usize;
            while let Some(u) = stack.pop() {
                size += 1;
                for &w in graph.neighbors(u) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(size);
        }
        GraphStats {
            nodes: n,
            edges: graph.num_edges(),
            avg_degree: graph.avg_degree(),
            max_degree: graph.max_degree(),
            isolated: graph.vertices().filter(|&v| graph.degree(v) == 0).count(),
            components,
            largest_component: largest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, Graph};

    #[test]
    fn stats_agree_across_substrates() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(GraphStats::compute(&g), GraphStats::compute(&csr));
    }

    #[test]
    fn stats_of_two_triangles_and_isolate() {
        // vertices 0-2 triangle, 3-5 triangle, 6 isolated
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.components, 3);
        assert_eq!(s.largest_component, 3);
        assert!((s.avg_degree - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&Graph::new(0));
        assert_eq!(s.nodes, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.largest_component, 0);
    }
}
