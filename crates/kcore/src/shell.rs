//! k-core and shell membership helpers shared across the workspace.

use avt_graph::VertexId;

/// Vertices whose core number is at least `k` (the k-core `C_k`) — the
/// membership filter behind spectrum and `CORE` queries.
pub fn k_core_members(cores: &[u32], k: u32) -> Vec<VertexId> {
    cores.iter().enumerate().filter_map(|(v, &c)| (c >= k).then_some(v as VertexId)).collect()
}

/// Size of the k-core without materializing it.
pub fn k_core_size(cores: &[u32], k: u32) -> usize {
    cores.iter().filter(|&&c| c >= k).count()
}

/// Vertices with core number exactly `c` (the c-shell). Followers of a
/// single anchored vertex can only come from the (k-1)-shell (Theorem 3 /
/// reference \[37\] of the paper).
pub fn shell_members(cores: &[u32], c: u32) -> Vec<VertexId> {
    cores.iter().enumerate().filter_map(|(v, &cv)| (cv == c).then_some(v as VertexId)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_sizes_agree() {
        let cores = vec![0, 1, 1, 2, 3, 3];
        assert_eq!(k_core_members(&cores, 2), vec![3, 4, 5]);
        assert_eq!(k_core_size(&cores, 2), 3);
        assert_eq!(k_core_size(&cores, 0), 6);
        assert_eq!(k_core_members(&cores, 4), Vec::<VertexId>::new());
    }

    #[test]
    fn shell_is_exact_core_level() {
        let cores = vec![0, 1, 1, 2, 3, 3];
        assert_eq!(shell_members(&cores, 1), vec![1, 2]);
        assert_eq!(shell_members(&cores, 3), vec![4, 5]);
        assert!(shell_members(&cores, 7).is_empty());
    }
}
