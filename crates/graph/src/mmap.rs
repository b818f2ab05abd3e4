//! Zero-copy CSR snapshots over memory-mapped `.csrbin` files.
//!
//! [`MmapCsr`] implements [`GraphView`] directly on the bytes of a
//! `.csrbin` file (layout in [`crate::io`]): the kernel maps the file,
//! `offsets`/`targets` are read *in place* as `&[u64]` / `&[u32]` slices
//! into the mapping, and no adjacency structure is ever rebuilt in heap
//! memory. Resident cost is whatever pages the queries actually touch —
//! the page cache, managed by the OS — which is what lets full-size SNAP
//! frames flow through the execution engine on machines whose RAM cannot
//! hold `T` resident [`CsrGraph`]s.
//!
//! The whole file is validated once on [`MmapCsr::open`] (magic, version,
//! exact length, offset monotonicity, target bounds, per-vertex sortedness)
//! so every later query can index and binary-search without re-checking;
//! after that the type is a plain read-only [`GraphView`] with exactly
//! [`CsrGraph`]'s query semantics — same neighbour order, same tie-breaks —
//! which is what makes engine runs over mmap'd frames bit-identical to
//! resident runs.
//!
//! # Platform notes
//!
//! On 64-bit Unix the mapping is a real `mmap(2)` (via the `libc` the Rust
//! runtime already links — no external crate). Elsewhere the file is read
//! into an owned 8-byte-aligned buffer: the same API and validation, just
//! not zero-copy. Big-endian hosts are refused (the format is
//! little-endian, see [`crate::io`]). The file must not be truncated or
//! rewritten while mapped — the usual `mmap` contract; the frame caches
//! written by `avt-datasets` are write-once.
//!
//! [`CsrGraph`]: crate::CsrGraph

use std::fs::File;
use std::path::Path;

use crate::io::{CSRBIN_HEADER_BYTES, CSRBIN_MAGIC, CSRBIN_VERSION};
use crate::{GraphError, GraphView, VertexId};

fn format_err(path: &Path, message: impl std::fmt::Display) -> GraphError {
    GraphError::File { path: path.to_path_buf(), message: message.to_string() }
}

/// The bytes backing an [`MmapCsr`]: a real file mapping where the platform
/// supports it, an owned aligned buffer otherwise. Both expose the file
/// image as one `&[u8]` whose offset 24 is 8-byte aligned (mappings are
/// page-aligned; the owned buffer is a `Vec<u64>`).
enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: std::ptr::NonNull<u8>, len: usize },
    /// Owned fallback; the extra `usize` is the byte length (the `Vec<u64>`
    /// rounds up to whole words).
    #[cfg_attr(all(unix, target_pointer_width = "64"), allow(dead_code))]
    Owned(Vec<u64>, usize),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, unmapped only in Drop.
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(ptr.as_ptr(), *len)
            },
            Backing::Owned(words, len) => {
                // SAFETY: the Vec owns `words.len() * 8 >= *len` initialized
                // bytes; reinterpreting u64s as bytes is always valid.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
        }
    }

    /// Read `file` into an owned 8-byte-aligned buffer (the non-mmap path).
    fn read_owned(file: &mut File, len: usize, path: &Path) -> Result<Backing, GraphError> {
        use std::io::Read;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `words.len() * 8` initialized bytes; we
        // borrow them mutably as bytes for the read.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        file.read_exact(&mut bytes[..len]).map_err(|e| format_err(path, format!("read: {e}")))?;
        Ok(Backing::Owned(words, len))
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! The two syscalls we need, bound directly: `std` already links the
    //! platform libc, so no external crate is required. 64-bit only (the
    //! `off_t` ABI differs on 32-bit targets; those take the owned-read
    //! fallback).
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
fn map_file(file: &mut File, len: usize, path: &Path) -> Result<Backing, GraphError> {
    use std::os::unix::io::AsRawFd;
    // SAFETY: fd is a live, readable file descriptor; len > 0 is checked by
    // the caller (the header alone is 24 bytes). A PROT_READ | MAP_PRIVATE
    // mapping of a regular file has no aliasing hazards from this process;
    // the pointer and length are kept together and unmapped exactly once.
    let ptr = unsafe {
        sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd(), 0)
    };
    if ptr == sys::map_failed() || ptr.is_null() {
        // Rare (e.g. a pseudo-file that cannot be mapped): fall back to an
        // owned read so open still succeeds where possible.
        return Backing::read_owned(file, len, path);
    }
    Ok(Backing::Mapped {
        ptr: std::ptr::NonNull::new(ptr.cast::<u8>()).expect("mmap success is non-null"),
        len,
    })
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = self {
            // SAFETY: this pair came from a successful mmap and is dropped
            // exactly once; no slice borrowed from it can outlive `self`.
            unsafe {
                sys::munmap(ptr.as_ptr().cast(), *len);
            }
        }
    }
}

/// An immutable CSR snapshot read in place from a mapped `.csrbin` file.
///
/// Query-for-query identical to [`crate::CsrGraph`] (sorted neighbour
/// slices, binary-search membership probes) without ever materializing the
/// arrays into process memory. See the module docs for the contract.
///
/// # Example
///
/// ```no_run
/// use avt_graph::{io, CsrGraph, GraphView, MmapCsr};
///
/// let csr = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap();
/// io::write_csrbin_file(&csr, "frame.csrbin".as_ref()).unwrap();
/// let mapped = MmapCsr::open("frame.csrbin".as_ref()).unwrap();
/// assert_eq!(mapped.neighbors(1), csr.neighbors(1));
/// assert!(mapped.has_edge(2, 0));
/// ```
pub struct MmapCsr {
    backing: Backing,
    n: usize,
    m: usize,
}

// SAFETY: the backing bytes are immutable for the lifetime of the value
// (PROT_READ mapping or owned buffer, never written after open), so shared
// references can move and be used across threads freely. The raw pointer
// only exists because a mapping is not a Rust allocation.
unsafe impl Send for MmapCsr {}
unsafe impl Sync for MmapCsr {}

impl MmapCsr {
    /// Map `path` and validate it as a `.csrbin` file.
    ///
    /// Validation is one full pass (header, exact file length, offset
    /// monotonicity, target bounds, sortedness, no self-loops) so that
    /// every subsequent query can trust the structure. Corrupt or
    /// truncated files, unknown versions, and big-endian hosts are
    /// rejected with a [`GraphError::File`].
    pub fn open(path: &Path) -> Result<MmapCsr, GraphError> {
        if cfg!(target_endian = "big") {
            return Err(format_err(path, ".csrbin is little-endian; big-endian hosts unsupported"));
        }
        let mut file =
            File::open(path).map_err(|e| format_err(path, format!("cannot open: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| format_err(path, format!("cannot stat: {e}")))?
            .len()
            .try_into()
            .map_err(|_| format_err(path, "file too large for this address space"))?;
        if len < CSRBIN_HEADER_BYTES {
            return Err(format_err(path, format!("{len} bytes is shorter than the header")));
        }
        #[cfg(all(unix, target_pointer_width = "64"))]
        let backing = map_file(&mut file, len, path)?;
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let backing = Backing::read_owned(&mut file, len, path)?;

        let (n, m) = validate(backing.bytes(), path)?;
        Ok(MmapCsr { backing, n, m })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// The offset array, in place in the mapping (`n + 1` entries).
    #[inline]
    fn offsets(&self) -> &[u64] {
        let bytes = self.backing.bytes();
        // SAFETY: validate() proved the file holds n + 1 u64s at byte 24;
        // the mapping is page-aligned (owned buffer: 8-aligned), so
        // 24-byte offset keeps 8-byte alignment. Lifetime is tied to &self.
        unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr().add(CSRBIN_HEADER_BYTES).cast::<u64>(),
                self.n + 1,
            )
        }
    }

    /// The concatenated neighbour array, in place in the mapping.
    #[inline]
    fn targets(&self) -> &[VertexId] {
        let bytes = self.backing.bytes();
        let start = CSRBIN_HEADER_BYTES + 8 * (self.n + 1);
        // SAFETY: validate() proved the file holds 2m u32s at `start`,
        // which is 4-aligned in a page-aligned (or 8-aligned) buffer.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().add(start).cast::<u32>(), 2 * self.m) }
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let offsets = self.offsets();
        (offsets[u as usize + 1] - offsets[u as usize]) as usize
    }

    /// The neighbours of `u`, sorted ascending (same order as
    /// [`crate::CsrGraph::neighbors`]).
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let offsets = self.offsets();
        &self.targets()[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
    }

    /// True when edge `(u, v)` is present; false for self-loops and
    /// out-of-range endpoints. Binary search on the shorter sorted list,
    /// exactly like [`crate::CsrGraph::has_edge`].
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || u as usize >= self.n || v as usize >= self.n {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree over all vertices (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.offsets().windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }
}

impl std::fmt::Debug for MmapCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapCsr").field("n", &self.n).field("m", &self.m).finish_non_exhaustive()
    }
}

impl GraphView for MmapCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        MmapCsr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        MmapCsr::num_edges(self)
    }

    #[inline]
    fn neighbors(&self, u: VertexId) -> &[VertexId] {
        MmapCsr::neighbors(self, u)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        MmapCsr::has_edge(self, u, v)
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        MmapCsr::degree(self, u)
    }

    fn max_degree(&self) -> usize {
        MmapCsr::max_degree(self)
    }
}

/// One structural pass over a candidate `.csrbin` image. Returns `(n, m)`.
fn validate(bytes: &[u8], path: &Path) -> Result<(usize, usize), GraphError> {
    let err = |message: String| format_err(path, message);
    if bytes[..4] != CSRBIN_MAGIC {
        return Err(err("not a .csrbin file (bad magic)".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CSRBIN_VERSION {
        return Err(err(format!("unknown .csrbin version {version} (expected {CSRBIN_VERSION})")));
    }
    let n = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let m = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if n > VertexId::MAX as u64 {
        return Err(err(format!("{n} vertices exceeds the u32 vertex-id space")));
    }
    // Bound m *before* any length arithmetic: the file must physically hold
    // 2m u32 targets, so a claim beyond len/8 is corrupt — and, unchecked,
    // a huge m would overflow the `8 * m` below into a wrapped "expected"
    // length a crafted header could match.
    if m > bytes.len() as u64 / 8 {
        return Err(err(format!("{m} edges cannot fit in a {}-byte file", bytes.len())));
    }
    let (n, m) = (n as usize, m as usize);
    // No overflow: n + 1 <= 2^32 and 8m <= bytes.len() after the checks
    // above.
    let expected = CSRBIN_HEADER_BYTES as u64 + 8 * (n as u64 + 1) + 8 * m as u64;
    if bytes.len() as u64 != expected {
        return Err(err(format!("length {} != expected {expected} for n={n} m={m}", bytes.len())));
    }
    // Read the arrays through safe (unaligned-tolerant) decoding for the
    // validation pass; the hot-path slices are only constructed after these
    // checks succeed.
    let offset_at = |i: usize| {
        let at = CSRBIN_HEADER_BYTES + 8 * i;
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    };
    let target_at = |i: usize| {
        let at = CSRBIN_HEADER_BYTES + 8 * (n + 1) + 4 * i;
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
    };
    if offset_at(0) != 0 {
        return Err(err("offsets[0] != 0".into()));
    }
    if offset_at(n) != 2 * m as u64 {
        return Err(err(format!("offsets[n] = {} != 2m = {}", offset_at(n), 2 * m)));
    }
    let mut prev_end = 0u64;
    for u in 0..n {
        let (start, end) = (offset_at(u), offset_at(u + 1));
        if start != prev_end || end < start || end > 2 * m as u64 {
            return Err(err(format!("offsets not monotone at vertex {u}")));
        }
        prev_end = end;
        let mut last: Option<u32> = None;
        for i in start..end {
            let t = target_at(i as usize);
            if t as usize >= n {
                return Err(err(format!("target {t} out of range for n={n} (vertex {u})")));
            }
            if t as usize == u {
                return Err(err(format!("self-loop on vertex {u}")));
            }
            if last.is_some_and(|p| p >= t) {
                return Err(err(format!("neighbour list of {u} not strictly ascending")));
            }
            last = Some(t);
        }
    }
    Ok((n, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_csrbin, write_csrbin_file};
    use crate::{CsrGraph, Graph};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("avt_mmap_{}_{tag}_{seq}.csrbin", std::process::id()))
    }

    fn sample_csr() -> CsrGraph {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (1, 4)]).unwrap();
        CsrGraph::from_graph(&g)
    }

    fn assert_agrees(mapped: &MmapCsr, csr: &CsrGraph) {
        assert_eq!(mapped.num_vertices(), csr.num_vertices());
        assert_eq!(mapped.num_edges(), csr.num_edges());
        assert_eq!(mapped.max_degree(), csr.max_degree());
        for u in csr.vertices() {
            assert_eq!(mapped.degree(u), csr.degree(u), "degree of {u}");
            assert_eq!(mapped.neighbors(u), csr.neighbors(u), "neighbours of {u}");
            for v in csr.vertices() {
                assert_eq!(mapped.has_edge(u, v), csr.has_edge(u, v), "edge ({u}, {v})");
            }
        }
        let mapped_edges: Vec<_> = GraphView::edges(mapped).collect();
        let csr_edges: Vec<_> = csr.edges().collect();
        assert_eq!(mapped_edges, csr_edges);
    }

    #[test]
    fn round_trips_through_the_file() {
        let csr = sample_csr();
        let path = temp_path("roundtrip");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = MmapCsr::open(&path).unwrap();
        assert_agrees(&mapped, &csr);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_and_edgeless_graphs_map() {
        for csr in [CsrGraph::new(0), CsrGraph::new(5)] {
            let path = temp_path("edgeless");
            write_csrbin_file(&csr, &path).unwrap();
            let mapped = MmapCsr::open(&path).unwrap();
            assert_agrees(&mapped, &csr);
            assert!(!mapped.has_edge(0, 1));
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn mapped_frame_is_send_and_sync() {
        let csr = sample_csr();
        let path = temp_path("threads");
        write_csrbin_file(&csr, &path).unwrap();
        let mapped = std::sync::Arc::new(MmapCsr::open(&path).unwrap());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let frame = std::sync::Arc::clone(&mapped);
                std::thread::spawn(move || frame.neighbors(1).len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), csr.degree(1));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_corrupt_files() {
        let csr = sample_csr();
        let mut bytes = Vec::new();
        write_csrbin(&csr, &mut bytes).unwrap();

        let write_and_open = |bytes: &[u8], tag: &str| {
            let path = temp_path(tag);
            std::fs::write(&path, bytes).unwrap();
            let result = MmapCsr::open(&path);
            let _ = std::fs::remove_file(path);
            result
        };

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(write_and_open(&bad, "magic").unwrap_err().to_string().contains("magic"));
        // Unknown version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(write_and_open(&bad, "version").unwrap_err().to_string().contains("version"));
        // Truncated.
        assert!(write_and_open(&bytes[..bytes.len() - 3], "trunc").is_err());
        assert!(write_and_open(&bytes[..10], "header").is_err());
        // Out-of-range target (last u32 of the file).
        let mut bad = bytes.clone();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(write_and_open(&bad, "target").is_err());
        // Non-monotone offsets: swap offsets[1] up past offsets[n].
        let mut bad = bytes.clone();
        bad[CSRBIN_HEADER_BYTES + 8..CSRBIN_HEADER_BYTES + 16]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(write_and_open(&bad, "monotone").is_err());
        // Missing file.
        assert!(MmapCsr::open(Path::new("/nonexistent/avt.csrbin")).is_err());
        // Overflow-crafted header: n = 0, m = 2^63 wraps `8·m` to 0, so an
        // unchecked length formula would accept this 32-byte file.
        let mut crafted = Vec::new();
        crafted.extend_from_slice(&CSRBIN_MAGIC);
        crafted.extend_from_slice(&1u32.to_le_bytes());
        crafted.extend_from_slice(&0u64.to_le_bytes());
        crafted.extend_from_slice(&(1u64 << 63).to_le_bytes());
        crafted.extend_from_slice(&0u64.to_le_bytes());
        assert!(write_and_open(&crafted, "overflow")
            .unwrap_err()
            .to_string()
            .contains("cannot fit"));
    }

    #[test]
    fn owned_fallback_matches_mapping() {
        // Exercise the non-mmap backing explicitly so the fallback path is
        // tested on every platform.
        let csr = sample_csr();
        let path = temp_path("owned");
        write_csrbin_file(&csr, &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut file = File::open(&path).unwrap();
        let backing = Backing::read_owned(&mut file, len, &path).unwrap();
        let (n, m) = validate(backing.bytes(), &path).unwrap();
        let owned = MmapCsr { backing, n, m };
        assert_agrees(&owned, &csr);
        let _ = std::fs::remove_file(path);
    }
}
