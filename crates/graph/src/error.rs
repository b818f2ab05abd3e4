//! Error type for graph construction and I/O.

use std::fmt;
use std::path::PathBuf;

/// Errors produced while building or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id was at least the graph's vertex count.
    VertexOutOfBounds {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// An edge `(u, u)` was supplied; the AVT model uses simple graphs.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: u64,
    },
    /// The edge already exists (on insert) or does not exist (on remove).
    EdgeConflict {
        /// First endpoint.
        u: u64,
        /// Second endpoint.
        v: u64,
        /// True when the conflict was a duplicate insertion.
        inserting: bool,
    },
    /// A line of an edge-list input could not be read or parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A file or frame directory could not be opened, written, mapped or
    /// validated.
    File {
        /// The file or directory.
        path: PathBuf,
        /// What went wrong with it.
        message: String,
    },
    /// A snapshot index outside `1..=snapshots`.
    SnapshotOutOfRange {
        /// The requested 1-based index.
        t: usize,
        /// The number of snapshots `T`.
        snapshots: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfBounds { vertex, n } => {
                write!(f, "vertex {vertex} out of bounds for graph with {n} vertices")
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed in a simple graph")
            }
            GraphError::EdgeConflict { u, v, inserting } => {
                if *inserting {
                    write!(f, "edge ({u}, {v}) already present")
                } else {
                    write!(f, "edge ({u}, {v}) not present")
                }
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::File { path, message } => write!(f, "{}: {message}", path.display()),
            GraphError::SnapshotOutOfRange { t, snapshots } => {
                write!(f, "snapshot index {t} out of range 1..={snapshots}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfBounds { vertex: 9, n: 4 };
        assert!(e.to_string().contains("vertex 9"));
        assert!(e.to_string().contains("4 vertices"));

        let e = GraphError::SelfLoop { vertex: 3 };
        assert!(e.to_string().contains("self-loop"));

        let e = GraphError::EdgeConflict { u: 1, v: 2, inserting: true };
        assert!(e.to_string().contains("already present"));
        let e = GraphError::EdgeConflict { u: 1, v: 2, inserting: false };
        assert!(e.to_string().contains("not present"));

        let e = GraphError::Parse { line: 7, message: "bad token".into() };
        assert_eq!(e.to_string(), "parse error on line 7: bad token");

        let e = GraphError::File { path: "frames/MANIFEST".into(), message: "cannot open".into() };
        assert_eq!(e.to_string(), "frames/MANIFEST: cannot open");

        let e = GraphError::SnapshotOutOfRange { t: 4, snapshots: 3 };
        assert_eq!(e.to_string(), "snapshot index 4 out of range 1..=3");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&GraphError::SelfLoop { vertex: 0 });
    }
}
