//! The frame-source abstraction: where the execution engine's snapshots
//! come from.
//!
//! The temporal execution engine replays "frame `t`, then frame `t+1`, …"
//! and solves each frame in isolation; *how* those frames are produced is
//! an independent axis. [`FrameSource`] captures exactly what the engine
//! needs — a `t`-ordered walk of `(t, Arc<frame>)` pairs plus the frame
//! count — so the engine never names a concrete substrate. Two sources
//! ship:
//!
//! * [`crate::EvolvingGraph`] — *resident* frames: each [`crate::CsrGraph`]
//!   is derived from its predecessor in memory
//!   ([`crate::EvolvingGraph::frames_arc`]);
//! * [`MmapFrames`] — *mapped* frames: a directory of `.csrbin` files
//!   (one per snapshot, written once by [`MmapFrames::spill`]) replayed as
//!   zero-copy [`crate::MmapCsr`] views, so a full-size stream runs in
//!   O(touched pages) resident memory instead of O(frame) per worker plus
//!   the producer's merge chain.
//!
//! Both yield frames whose query semantics are identical (same neighbour
//! order, same probe results), which is what keeps engine output
//! bit-identical across sources.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::{EvolvingGraph, GraphError, GraphView, MmapCsr};

/// A `t`-ordered producer of frozen snapshot frames for the execution
/// engine.
///
/// Implementations yield every snapshot exactly once, in ascending `t`,
/// behind an [`Arc`] so frames can outlive the iterator and cross thread
/// boundaries (the pipelined runner's producer hands them to a worker
/// pool). `Sync` is required because the producer runs on a borrowed
/// thread scope.
pub trait FrameSource: Sync {
    /// The substrate the frames are made of.
    type Frame: GraphView;

    /// Number of frames [`Self::iter_frames`] will yield.
    fn num_frames(&self) -> usize;

    /// Walk all frames in ascending `t` (1-based snapshot indices).
    fn iter_frames(&self) -> impl Iterator<Item = (usize, Arc<Self::Frame>)> + Send + '_;
}

impl FrameSource for EvolvingGraph {
    type Frame = crate::CsrGraph;

    fn num_frames(&self) -> usize {
        self.num_snapshots()
    }

    fn iter_frames(&self) -> impl Iterator<Item = (usize, Arc<Self::Frame>)> + Send + '_ {
        self.frames_arc()
    }
}

/// Name of the manifest file marking a complete frame directory. Written
/// *last* by [`MmapFrames::spill`], so a directory with frames but no
/// manifest is a detectably interrupted spill.
const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "avt-frames v1";

fn frame_filename(t: usize) -> String {
    format!("frame-{t:06}.csrbin")
}

fn dir_err(dir: &Path, message: impl std::fmt::Display) -> GraphError {
    GraphError::File { path: dir.to_path_buf(), message: message.to_string() }
}

/// A directory of `.csrbin` frames replayed as a zero-copy [`FrameSource`].
///
/// [`MmapFrames::open`] maps and validates every frame eagerly — one
/// streaming pass over each file (see [`MmapCsr::open`]), after which no
/// per-process adjacency structure is ever rebuilt and
/// [`FrameSource::iter_frames`] only bumps refcounts. During solving the
/// frames live in the shared page cache, so resident memory is whatever
/// the queries touch and the kernel can always evict cold frames —
/// unlike resident [`crate::CsrGraph`] chains, which occupy heap for every
/// live frame.
///
/// # Example
///
/// ```
/// use avt_graph::source::{FrameSource, MmapFrames};
/// use avt_graph::{EdgeBatch, EvolvingGraph, Graph, GraphView};
///
/// let mut eg = EvolvingGraph::new(Graph::from_edges(3, [(0, 1)]).unwrap());
/// eg.push_batch(EdgeBatch::from_pairs([(1, 2)], []));
///
/// let dir = std::env::temp_dir().join(format!("avt-doc-frames-{}", std::process::id()));
/// let frames = MmapFrames::spill(&eg, &dir).unwrap();
/// let edge_counts: Vec<_> = frames.iter_frames().map(|(t, f)| (t, f.num_edges())).collect();
/// assert_eq!(edge_counts, vec![(1, 1), (2, 2)]);
/// # std::fs::remove_dir_all(dir).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct MmapFrames {
    // Clone is a refcount bump per frame (the mappings themselves are
    // shared), which is what lets callers memoize an opened source.
    frames: Vec<Arc<MmapCsr>>,
    dir: PathBuf,
}

impl MmapFrames {
    /// Serialize every frame of `evolving` into `dir` (created if missing)
    /// and open the result. Frames are materialized one at a time through
    /// the incremental [`EvolvingGraph::frames_arc`] walk, so spilling
    /// itself runs in O(frame) resident memory. Any previous contents of
    /// `dir` are overwritten; the manifest is written last so an
    /// interrupted spill is never mistaken for a complete cache.
    pub fn spill(evolving: &EvolvingGraph, dir: &Path) -> Result<MmapFrames, GraphError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| dir_err(dir, format!("cannot create directory: {e}")))?;
        // Drop any stale manifest first: readers treat its presence as "the
        // frames below are complete".
        let manifest_path = dir.join(MANIFEST);
        if manifest_path.exists() {
            std::fs::remove_file(&manifest_path)
                .map_err(|e| dir_err(dir, format!("cannot clear stale manifest: {e}")))?;
        }
        for (t, frame) in evolving.frames_arc() {
            crate::io::write_csrbin_file(&frame, &dir.join(frame_filename(t)))?;
        }
        let mut manifest = std::fs::File::create(&manifest_path)
            .map_err(|e| dir_err(dir, format!("cannot write manifest: {e}")))
            .map(std::io::BufWriter::new)?;
        writeln!(manifest, "{MANIFEST_HEADER}\nframes {}", evolving.num_snapshots())
            .and_then(|()| manifest.flush())
            .map_err(|e| dir_err(dir, format!("cannot write manifest: {e}")))?;
        Self::open(dir)
    }

    /// Open a complete frame directory previously written by
    /// [`MmapFrames::spill`]. Fails when the manifest is missing or
    /// malformed, or any listed frame fails to map/validate.
    pub fn open(dir: &Path) -> Result<MmapFrames, GraphError> {
        let manifest = std::fs::File::open(dir.join(MANIFEST))
            .map_err(|e| dir_err(dir, format!("no frame manifest: {e}")))?;
        let mut lines = std::io::BufReader::new(manifest).lines();
        let mut next = || {
            lines
                .next()
                .transpose()
                .map_err(|e| dir_err(dir, format!("manifest read: {e}")))?
                .ok_or_else(|| dir_err(dir, "manifest truncated"))
        };
        if next()? != MANIFEST_HEADER {
            return Err(dir_err(dir, "unrecognized manifest header"));
        }
        let count_line = next()?;
        let count: usize = count_line
            .strip_prefix("frames ")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| dir_err(dir, format!("bad manifest count line {count_line:?}")))?;
        let frames = (1..=count)
            .map(|t| MmapCsr::open(&dir.join(frame_filename(t))).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MmapFrames { frames, dir: dir.to_path_buf() })
    }

    /// The directory the frames are mapped from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The same mapped frames, reporting `dir` as their location. Mappings
    /// are inode-based, so renaming the parent directory does not
    /// invalidate them — callers that spill into a staging directory and
    /// publish it with an atomic `rename` use this to fix up the reported
    /// path without re-validating every frame.
    pub fn at_dir(mut self, dir: PathBuf) -> MmapFrames {
        self.dir = dir;
        self
    }

    /// Shared handle to frame `t` (1-based), if in range.
    pub fn frame(&self, t: usize) -> Option<Arc<MmapCsr>> {
        self.frames.get(t.checked_sub(1)?).map(Arc::clone)
    }
}

impl FrameSource for MmapFrames {
    type Frame = MmapCsr;

    fn num_frames(&self) -> usize {
        self.frames.len()
    }

    fn iter_frames(&self) -> impl Iterator<Item = (usize, Arc<Self::Frame>)> + Send + '_ {
        self.frames.iter().enumerate().map(|(i, frame)| (i + 1, Arc::clone(frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeBatch, Graph};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("avt_source_{}_{tag}_{seq}", std::process::id()))
    }

    fn sample() -> EvolvingGraph {
        let g1 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut eg = EvolvingGraph::new(g1);
        eg.push_batch(EdgeBatch::from_pairs([(3, 4)], []));
        eg.push_batch(EdgeBatch::from_pairs([(0, 4)], [(0, 1)]));
        eg
    }

    #[test]
    fn evolving_graph_is_a_frame_source() {
        let eg = sample();
        assert_eq!(FrameSource::num_frames(&eg), 3);
        let walked: Vec<_> = eg.iter_frames().map(|(t, f)| (t, f.num_edges())).collect();
        assert_eq!(walked, vec![(1, 3), (2, 4), (3, 4)]);
    }

    #[test]
    fn spilled_frames_replay_identically() {
        let eg = sample();
        let dir = temp_dir("replay");
        let frames = MmapFrames::spill(&eg, &dir).unwrap();
        assert_eq!(frames.num_frames(), eg.num_snapshots());
        assert_eq!(frames.dir(), dir.as_path());
        for ((mt, mapped), (rt, resident)) in frames.iter_frames().zip(eg.frames_arc()) {
            assert_eq!(mt, rt);
            assert_eq!(mapped.num_vertices(), resident.num_vertices(), "t={rt}");
            assert_eq!(mapped.num_edges(), resident.num_edges(), "t={rt}");
            for u in resident.vertices() {
                assert_eq!(mapped.neighbors(u), resident.neighbors(u), "t={rt} u={u}");
            }
        }
        // frame() accessor agrees with the walk and bounds-checks.
        assert_eq!(frames.frame(2).unwrap().num_edges(), 4);
        assert!(frames.frame(0).is_none());
        assert!(frames.frame(4).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_uses_the_cache_without_the_graph() {
        let eg = sample();
        let dir = temp_dir("reopen");
        drop(MmapFrames::spill(&eg, &dir).unwrap());
        let reopened = MmapFrames::open(&dir).unwrap();
        assert_eq!(reopened.num_frames(), 3);
        assert_eq!(reopened.frame(3).unwrap().num_edges(), 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn incomplete_spill_is_rejected() {
        let eg = sample();
        let dir = temp_dir("incomplete");
        drop(MmapFrames::spill(&eg, &dir).unwrap());
        // Simulate an interrupted spill: a frame is gone but the manifest
        // still promises it.
        std::fs::remove_file(dir.join(frame_filename(2))).unwrap();
        assert!(MmapFrames::open(&dir).is_err());
        // No manifest at all.
        std::fs::remove_file(dir.join(MANIFEST)).unwrap();
        assert!(MmapFrames::open(&dir).err().unwrap().to_string().contains("manifest"));
        // Re-spilling repairs the directory.
        let repaired = MmapFrames::spill(&eg, &dir).unwrap();
        assert_eq!(repaired.num_frames(), 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_manifest_is_rejected() {
        let dir = temp_dir("badmanifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST), "something else\n").unwrap();
        assert!(MmapFrames::open(&dir).is_err());
        std::fs::write(dir.join(MANIFEST), format!("{MANIFEST_HEADER}\nframes nope\n")).unwrap();
        assert!(MmapFrames::open(&dir).is_err());
        std::fs::write(dir.join(MANIFEST), format!("{MANIFEST_HEADER}\n")).unwrap();
        assert!(MmapFrames::open(&dir).err().unwrap().to_string().contains("truncated"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
