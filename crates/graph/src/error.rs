//! Error type for graph construction and I/O.

use std::fmt;

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
    /// Input could not be read or parsed: a line of an edge-list file, or
    /// a file, directory or index as a whole.
    Parse {
        /// 1-based line number, or 0 when the error has no line (a file
        /// that cannot be opened, a bad frame directory, an out-of-range
        /// snapshot index); the message then omits it.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The writer is unavailable: a live replay borrow requires a
    /// quiesced writer (used by the serve layer's timeline guard).
    WriterBusy,
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
            GraphError::Parse { line: 0, message } => write!(f, "parse error: {message}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::WriterBusy => {
                write!(f, "writer busy: a replay borrow is live; retry after the replay finishes")
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
        assert!(e.to_string().contains("line 7"));
        let e = GraphError::Parse { line: 0, message: "cannot open x".into() };
        assert_eq!(e.to_string(), "parse error: cannot open x");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&GraphError::SelfLoop { vertex: 0 });
    }
}
