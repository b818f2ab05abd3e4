//! SNAP-style edge-list parsing, plus the binary `.csrbin` snapshot
//! format.
//!
//! Two text formats are supported, matching the datasets in the paper's
//! §6.1:
//!
//! * **static**: one `u v` pair per line (email-Enron, Gnutella, Deezer);
//! * **temporal**: one `u v timestamp` triple per line (eu-core,
//!   mathoverflow, CollegeMsg).
//!
//! Lines starting with `#` or `%` are comments. Tokens may be separated by
//! any ASCII whitespace. Parsing is tolerant of duplicate edges and
//! self-loops (they are dropped, with counts reported via
//! [`crate::builder::BuiltGraph`]).
//!
//! # The `.csrbin` format
//!
//! A [`CsrGraph`] is two flat arrays, so its on-disk form is simply those
//! arrays behind a fixed header — no compression, no framing — laid out so
//! that a page-aligned mapping of the file can be *used in place* as a
//! graph ([`crate::MmapCsr`]). All integers are **little-endian**; the
//! format is not host-endian (a big-endian writer/reader would have to
//! byte-swap, and [`crate::MmapCsr::open`] refuses big-endian hosts rather
//! than silently mis-reading).
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0  | 4 | magic `b"CSRB"` |
//! | 4  | 4 | format version, u32 LE (currently [`CSRBIN_VERSION`] = 1) |
//! | 8  | 8 | `n` — vertex count, u64 LE |
//! | 16 | 8 | `m` — edge count, u64 LE |
//! | 24 | `8·(n+1)` | `offsets` — u64 LE each; `offsets[n] == 2m` |
//! | `24 + 8·(n+1)` | `4·2m` | `targets` — u32 LE vertex ids, each per-vertex slice sorted ascending |
//!
//! The header is 24 bytes, so the `offsets` array begins 8-byte aligned
//! and the `targets` array (at `24 + 8·(n+1)`) begins 4-byte aligned in
//! any page-aligned mapping. The file length is exactly
//! `24 + 8·(n+1) + 8·m`; any mismatch is rejected on open. Future layout
//! changes bump [`CSRBIN_VERSION`]; readers reject versions they do not
//! know.

use std::io::{BufRead, Write};
use std::path::Path;

use crate::builder::BuiltGraph;
use crate::csr::CsrGraph;
use crate::{GraphBuilder, GraphError, VertexId};

/// Magic bytes opening every `.csrbin` file.
pub const CSRBIN_MAGIC: [u8; 4] = *b"CSRB";

/// Current `.csrbin` format version.
pub const CSRBIN_VERSION: u32 = 1;

/// Byte length of the fixed `.csrbin` header (magic + version + n + m).
pub const CSRBIN_HEADER_BYTES: usize = 24;

/// Serialize a frozen CSR frame in the `.csrbin` format (see the module
/// docs for the exact layout). The output is what [`crate::MmapCsr::open`]
/// maps zero-copy.
pub fn write_csrbin<W: Write>(csr: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writer.write_all(&CSRBIN_MAGIC)?;
    writer.write_all(&CSRBIN_VERSION.to_le_bytes())?;
    writer.write_all(&(csr.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(csr.num_edges() as u64).to_le_bytes())?;
    // Buffer the arrays in chunks so unbuffered writers still see a few
    // large writes rather than one syscall per integer.
    let mut buf = Vec::with_capacity(1 << 16);
    for &offset in csr.offsets() {
        buf.extend_from_slice(&(offset as u64).to_le_bytes());
        if buf.len() >= (1 << 16) - 8 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    for &target in csr.targets() {
        buf.extend_from_slice(&target.to_le_bytes());
        if buf.len() >= (1 << 16) - 8 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)
}

/// Write a `.csrbin` file at `path` (created or truncated). The buffer is
/// flushed before returning, so a failed write is reported, not dropped.
pub fn write_csrbin_file(csr: &CsrGraph, path: &Path) -> Result<(), GraphError> {
    let file_err = |message: String| GraphError::File { path: path.to_path_buf(), message };
    let file = std::fs::File::create(path).map_err(|e| file_err(format!("cannot create: {e}")))?;
    let mut writer = std::io::BufWriter::new(file);
    write_csrbin(csr, &mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| file_err(format!("cannot write: {e}")))
}

/// A timestamped interaction `(u, v, t)` from a temporal edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalEdge {
    /// First endpoint (raw id).
    pub u: u64,
    /// Second endpoint (raw id).
    pub v: u64,
    /// Event time (seconds or arbitrary units, monotone per dataset).
    pub timestamp: u64,
}

fn is_comment(line: &str) -> bool {
    matches!(line.trim_start().chars().next(), Some('#') | Some('%') | None)
}

fn parse_token(tok: &str, line_no: usize) -> Result<u64, GraphError> {
    tok.parse::<u64>().map_err(|_| GraphError::Parse {
        line: line_no,
        message: format!("expected unsigned integer, found {tok:?}"),
    })
}

/// Parse a static edge list from a reader into a clean dense graph.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<BuiltGraph, GraphError> {
    let mut builder = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line
            .map_err(|e| GraphError::Parse { line: line_no, message: format!("I/O error: {e}") })?;
        if is_comment(&line) {
            continue;
        }
        let mut toks = line.split_ascii_whitespace();
        let (Some(a), Some(b)) = (toks.next(), toks.next()) else {
            return Err(GraphError::Parse {
                line: line_no,
                message: "expected two whitespace-separated vertex ids".into(),
            });
        };
        builder.add_edge(parse_token(a, line_no)?, parse_token(b, line_no)?);
    }
    Ok(builder.build())
}

/// Parse a temporal edge list (`u v timestamp` per line). Events are
/// returned in file order; callers sort by timestamp as needed.
pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<Vec<TemporalEdge>, GraphError> {
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line
            .map_err(|e| GraphError::Parse { line: line_no, message: format!("I/O error: {e}") })?;
        if is_comment(&line) {
            continue;
        }
        let mut toks = line.split_ascii_whitespace();
        let (Some(a), Some(b), Some(t)) = (toks.next(), toks.next(), toks.next()) else {
            return Err(GraphError::Parse {
                line: line_no,
                message: "expected `u v timestamp`".into(),
            });
        };
        out.push(TemporalEdge {
            u: parse_token(a, line_no)?,
            v: parse_token(b, line_no)?,
            timestamp: parse_token(t, line_no)?,
        });
    }
    Ok(out)
}

/// Densify a set of temporal edges: returns `(n, events)` where events use
/// dense vertex ids `0..n` and are sorted by timestamp (stable for ties).
pub fn densify_temporal(events: &[TemporalEdge]) -> (usize, Vec<(VertexId, VertexId, u64)>) {
    let mut ids: Vec<u64> = events.iter().flat_map(|e| [e.u, e.v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let dense = |raw: u64| -> VertexId {
        ids.binary_search(&raw).expect("id was collected above") as VertexId
    };
    let mut out: Vec<(VertexId, VertexId, u64)> =
        events.iter().map(|e| (dense(e.u), dense(e.v), e.timestamp)).collect();
    out.sort_by_key(|&(_, _, t)| t);
    (ids.len(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_edge_list() {
        let built =
            read_edge_list("# comment\n0 1\n1 2\n\n% also comment\n2 0\n".as_bytes()).unwrap();
        assert_eq!(built.graph.num_vertices(), 3);
        assert_eq!(built.graph.num_edges(), 3);
    }

    #[test]
    fn tolerates_duplicates_and_self_loops() {
        let built = read_edge_list("0 1\n1 0\n2 2\n0 1\n".as_bytes()).unwrap();
        assert_eq!(built.graph.num_edges(), 1);
        assert_eq!(built.dropped_duplicates, 2);
        assert_eq!(built.dropped_self_loops, 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = read_edge_list("0 1\nbogus\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_edge_list("0 -3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn tab_separated_ids_accepted() {
        let built = read_edge_list("10\t20\n20\t30\n".as_bytes()).unwrap();
        assert_eq!(built.graph.num_edges(), 2);
        assert_eq!(built.original_ids, vec![10, 20, 30]);
    }

    #[test]
    fn temporal_parse_and_densify() {
        let events = read_temporal_edge_list("# t\n5 6 100\n6 7 50\n5 7 75\n".as_bytes()).unwrap();
        assert_eq!(events.len(), 3);
        let (n, dense) = densify_temporal(&events);
        assert_eq!(n, 3);
        // sorted by timestamp: (6,7,50), (5,7,75), (5,6,100) -> dense ids 5->0,6->1,7->2
        assert_eq!(dense, vec![(1, 2, 50), (0, 2, 75), (0, 1, 100)]);
    }

    #[test]
    fn temporal_rejects_two_token_lines() {
        assert!(read_temporal_edge_list("1 2\n".as_bytes()).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn csrbin_write_errors_are_reported() {
        // `/dev/full` accepts the open and fails every write with ENOSPC;
        // the small frame fits the buffer, so only the flush can see it.
        let frame =
            CsrGraph::from_graph(&crate::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap());
        let err = write_csrbin_file(&frame, Path::new("/dev/full")).unwrap_err();
        assert!(matches!(err, GraphError::File { .. }), "{err}");
    }
}
