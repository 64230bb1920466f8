//! Graph serialization: whitespace text edge lists, Matrix Market, and a
//! compact binary format (the moral equivalent of Grazelle's `-push`/`-pull`
//! binary inputs, except one file carries both orientations' source edge
//! list).
//!
//! # Hardened ingestion (ISSUE 2)
//!
//! The binary format is versioned and checksummed: the `flags` byte carries
//! a version nibble in its high bits, and version-1 files end in a CRC32C
//! trailer over every preceding byte. Decoding is strict by default —
//! legacy (version-0, unchecksummed) files load only behind
//! [`LoadOptions::allow_unchecksummed`], and header-declared sizes are
//! validated against a byte budget *before* any allocation so a hostile
//! three-line header cannot OOM the loader. The `load_*` entry points read
//! through [`read_retrying`], absorbing bounded transient I/O errors
//! (`Interrupted`/`WouldBlock`) with backoff.

use crate::checksum::crc32c;
use crate::edgelist::EdgeList;
use crate::faults::{read_retrying, RetryPolicy, RetryStats};
use crate::graph::Graph;
use crate::types::{GraphError, VertexId};
use grazelle_sched::ThreadPool;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes for the binary format.
pub const MAGIC: [u8; 8] = *b"GRZL0001";

/// Current binary format version, stored in the high nibble of the flags
/// byte. Version 0 is the legacy unchecksummed layout; version 1 appends a
/// CRC32C trailer.
pub const FORMAT_VERSION: u8 = 1;

/// Flags bit 0: the payload carries an 8-byte weight per edge.
const FLAG_WEIGHTED: u8 = 0x01;

/// `MAGIC | flags:u8 | n:u64 | m:u64`.
const HEADER_LEN: usize = 8 + 1 + 16;

/// CRC32C trailer length (version ≥ 1 only).
const TRAILER_LEN: usize = 4;

/// Edge reservation cap for loaders that cannot see the input size (e.g. a
/// generic `Read`): headers may declare any count, so preallocation is
/// clamped here and the `Vec` grows normally for legitimate inputs.
const PREALLOC_CAP: usize = 1 << 16;

/// Knobs governing how much a loader will trust and spend on an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Accept legacy version-0 files that carry no checksum. Off by
    /// default: an unchecksummed multi-hundred-GB input is exactly the
    /// silent-corruption risk the format revision exists to close.
    pub allow_unchecksummed: bool,
    /// Upper bound, in bytes, on what the header-declared sizes may imply
    /// (payload plus ~8 bytes/vertex of downstream build cost). Checked
    /// before any allocation.
    pub max_bytes: u64,
    /// Retry policy for transient I/O errors in the `load_*`/`read_*`
    /// entry points.
    pub retry: RetryPolicy,
}

impl LoadOptions {
    /// Default byte budget: 1 GiB. Raise it explicitly for larger inputs.
    pub const DEFAULT_BUDGET: u64 = 1 << 30;

    /// Strict defaults: checksums required, 1 GiB budget, default retry.
    pub fn strict() -> Self {
        LoadOptions {
            allow_unchecksummed: false,
            max_bytes: Self::DEFAULT_BUDGET,
            retry: RetryPolicy::DEFAULT,
        }
    }

    /// Builder: opt into loading legacy unchecksummed files.
    pub fn with_allow_unchecksummed(mut self, allow: bool) -> Self {
        self.allow_unchecksummed = allow;
        self
    }

    /// Builder: byte budget.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Builder: retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions::strict()
    }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Byte-level line iterator shared by the text parsers: yields each line
/// without its terminator, never allocating. `"a\n"` is one line, matching
/// `BufRead::lines`.
fn next_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if *pos >= bytes.len() {
        return None;
    }
    let start = *pos;
    let end = bytes[start..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| start + i)
        .unwrap_or(bytes.len());
    *pos = end + 1;
    Some(&bytes[start..end])
}

/// ASCII-whitespace trim over bytes (the zero-alloc stand-in for
/// `str::trim` on the ASCII inputs this format actually uses).
fn trim_ascii(mut line: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = line {
        if b.is_ascii_whitespace() {
            line = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., b] = line {
        if b.is_ascii_whitespace() {
            line = rest;
        } else {
            break;
        }
    }
    line
}

/// Next ASCII-whitespace-separated token, advancing `pos` past it.
fn next_token<'a>(line: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    while *pos < line.len() && line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    if *pos >= line.len() {
        return None;
    }
    let start = *pos;
    while *pos < line.len() && !line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    Some(&line[start..*pos])
}

/// Parses a token via `str::parse` so error text matches the historical
/// `String`-based parser exactly; invalid UTF-8 degrades to a replacement
/// character, which `parse` rejects with the usual "invalid digit" error.
fn token_str(tok: &[u8]) -> &str {
    std::str::from_utf8(tok).unwrap_or("\u{fffd}")
}

/// A vertex-id token as `u64`. One to nineteen ASCII digits cannot
/// overflow and are folded directly — every token of a well-formed file;
/// anything else (sign, overflow, junk) goes through `str::parse`, which
/// accepts or rejects it with the historical error text.
fn parse_u64_token(tok: &[u8]) -> Result<u64, String> {
    if (1..=19).contains(&tok.len()) && tok.iter().all(u8::is_ascii_digit) {
        return Ok(tok.iter().fold(0, |v, &b| v * 10 + u64::from(b - b'0')));
    }
    token_str(tok).parse::<u64>().map_err(|e| e.to_string())
}

/// A text-parse failure, classified; carried with a chunk-relative line
/// number until the merge step knows absolute numbering.
#[derive(Debug)]
enum TextErrKind {
    Missing(&'static str),
    Bad(&'static str, String),
    BadWeight(String),
    OutOfRange(u64),
    WeightAfterUnweighted,
    MissingWeight,
}

impl TextErrKind {
    fn into_error(self, line: usize) -> GraphError {
        let lineno = line + 1;
        match self {
            TextErrKind::Missing(what) => GraphError::Io(format!("line {lineno}: missing {what}")),
            TextErrKind::Bad(what, e) => GraphError::Io(format!("line {lineno}: bad {what}: {e}")),
            TextErrKind::BadWeight(e) => GraphError::Io(format!("line {lineno}: bad weight: {e}")),
            TextErrKind::OutOfRange(v) => GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: u32::MAX as u64,
            },
            TextErrKind::WeightAfterUnweighted => GraphError::Io(format!(
                "line {lineno}: weight appears after unweighted edges"
            )),
            TextErrKind::MissingWeight => GraphError::Io(format!(
                "line {lineno}: missing weight in weighted edge list"
            )),
        }
    }
}

/// One parsed chunk of a text edge list. Chunks are produced independently
/// (one per worker for the parallel path, a single whole-buffer chunk for
/// the sequential path) and merged in deterministic order by
/// [`merge_text_chunks`], so both paths share every byte of parsing logic.
#[derive(Debug, Default)]
struct TextChunk {
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<f64>,
    max_v: u64,
    /// Lines consumed (for absolute line numbering of later chunks).
    lines: usize,
    /// Chunk-relative line of the first edge, if any.
    first_edge_line: usize,
    /// Weighted-mode of this chunk's edges (`None` when the chunk has none).
    weighted: Option<bool>,
    /// First failure, at its chunk-relative line. Parsing stops here.
    err: Option<(usize, TextErrKind)>,
}

/// Parses one newline-delimited byte range: `src dst [weight]` per line,
/// `#`-comments and blank lines skipped, zero allocations per line.
fn parse_text_chunk(bytes: &[u8]) -> TextChunk {
    let mut out = TextChunk::default();
    let mut pos = 0usize;
    while let Some(raw) = next_line(bytes, &mut pos) {
        let lineno = out.lines;
        out.lines += 1;
        let line = trim_ascii(raw);
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        let mut tp = 0usize;
        let mut field = |what: &'static str| -> Result<u64, TextErrKind> {
            let tok = next_token(line, &mut tp).ok_or(TextErrKind::Missing(what))?;
            parse_u64_token(tok).map_err(|e| TextErrKind::Bad(what, e))
        };
        let parsed = field("source").and_then(|s| field("destination").map(|d| (s, d)));
        let (s, d) = match parsed {
            Ok(sd) => sd,
            Err(kind) => {
                out.err = Some((lineno, kind));
                break;
            }
        };
        if s > u32::MAX as u64 || d > u32::MAX as u64 {
            out.err = Some((lineno, TextErrKind::OutOfRange(s.max(d))));
            break;
        }
        let weight = match next_token(line, &mut tp) {
            Some(tok) => match token_str(tok).parse::<f64>() {
                Ok(w) => Some(w),
                Err(e) => {
                    out.err = Some((lineno, TextErrKind::BadWeight(e.to_string())));
                    break;
                }
            },
            None => None,
        };
        // Enforce mode consistency *within* the chunk; consistency against
        // earlier chunks is the merge step's job.
        match (out.weighted, weight) {
            (Some(false), Some(_)) => {
                out.err = Some((lineno, TextErrKind::WeightAfterUnweighted));
                break;
            }
            (Some(true), None) => {
                out.err = Some((lineno, TextErrKind::MissingWeight));
                break;
            }
            _ => {}
        }
        if out.weighted.is_none() {
            out.weighted = Some(weight.is_some());
            out.first_edge_line = lineno;
        }
        if let Some(w) = weight {
            out.weights.push(w);
        }
        out.max_v = out.max_v.max(s).max(d);
        out.edges.push((s as VertexId, d as VertexId));
    }
    out
}

/// Concatenates chunk results in order, resolving cross-chunk weighted/
/// unweighted conflicts and converting chunk-relative error lines to
/// absolute ones. With a single whole-buffer chunk this reduces exactly to
/// the historical sequential semantics; with many chunks the earliest
/// problem (by absolute line) still wins, so the reported error is
/// independent of the chunk count.
fn merge_text_chunks(chunks: Vec<TextChunk>) -> Result<EdgeList, GraphError> {
    let total_edges: usize = chunks.iter().map(|c| c.edges.len()).sum();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut any_weight = false;
    let mut max_v = 0u64;
    let mut line_base = 0usize;
    for chunk in chunks {
        // A chunk whose first edge disagrees with the established global
        // mode fails at that first edge — exactly where the sequential
        // scan would have tripped.
        let conflict = match chunk.weighted {
            Some(w) if !edges.is_empty() && w != any_weight => Some((
                chunk.first_edge_line,
                if w {
                    TextErrKind::WeightAfterUnweighted
                } else {
                    TextErrKind::MissingWeight
                },
            )),
            _ => None,
        };
        // The chunk's own error can only be *later* than its first edge, so
        // the earlier of the two is the one the sequential scan hits first.
        let first_problem = match (conflict, chunk.err) {
            (Some((cl, ck)), Some((el, ek))) => Some(if cl <= el { (cl, ck) } else { (el, ek) }),
            (p @ Some(_), None) => p,
            (None, p @ Some(_)) => p,
            (None, None) => None,
        };
        if let Some((line, kind)) = first_problem {
            return Err(kind.into_error(line_base + line));
        }
        if let Some(w) = chunk.weighted {
            if edges.is_empty() {
                any_weight = w;
            }
        }
        max_v = max_v.max(chunk.max_v);
        // The first chunk with edges donates its buffers, grown once to
        // the final size; only the later chunks are copied. (The
        // sequential parse is one chunk, so it copies nothing.)
        if edges.is_empty() && !chunk.edges.is_empty() {
            edges = chunk.edges;
            edges.reserve_exact(total_edges - edges.len());
            if any_weight {
                weights = chunk.weights;
                weights.reserve_exact(total_edges - weights.len());
            }
        } else {
            edges.extend_from_slice(&chunk.edges);
            if any_weight {
                weights.extend_from_slice(&chunk.weights);
            }
        }
        line_base += chunk.lines;
    }
    // A donated buffer grew by doubling; give the slack back.
    edges.shrink_to_fit();
    weights.shrink_to_fit();
    let n = if edges.is_empty() {
        0
    } else {
        max_v as usize + 1
    };
    EdgeList::from_parts(n, edges, if any_weight { Some(weights) } else { None })
}

/// Parses a text edge list from a byte buffer: one `src dst [weight]` per
/// line, `#`-prefixed comment lines ignored. The vertex set is sized to the
/// maximum endpoint. Single-threaded; see
/// [`parse_text_edgelist_parallel`] for the pool-backed variant.
pub fn parse_text_edgelist(bytes: &[u8]) -> Result<EdgeList, GraphError> {
    merge_text_chunks(vec![parse_text_chunk(bytes)])
}

/// Splits `bytes` into `k` near-equal ranges whose boundaries fall just
/// after a newline, so no line straddles two ranges. Always returns exactly
/// `k` (possibly empty) ranges covering the whole buffer in order.
fn newline_chunk_ranges(bytes: &[u8], k: usize) -> Vec<std::ops::Range<usize>> {
    let len = bytes.len();
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 1..=k {
        let mut end = (len * i / k).max(start);
        if i < k {
            while end < len && (end == 0 || bytes[end - 1] != b'\n') {
                end += 1;
            }
        } else {
            end = len;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Parallel [`parse_text_edgelist`]: the buffer is split on newline
/// boundaries into one byte range per pool thread, each range is parsed
/// into thread-local vectors, and the results are concatenated in range
/// order — so the resulting list (and any reported error) is identical to
/// the sequential parse.
pub fn parse_text_edgelist_parallel(
    bytes: &[u8],
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    let ranges = newline_chunk_ranges(bytes, pool.num_threads());
    let chunks = pool.run_tasks(ranges, |_, r| parse_text_chunk(&bytes[r]));
    merge_text_chunks(chunks)
}

/// Parses a text edge list from any [`Read`] (reads to EOF, then parses the
/// buffer). See [`parse_text_edgelist`].
pub fn read_text_edgelist<R: Read>(mut reader: R) -> Result<EdgeList, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_text_edgelist(&bytes)
}

/// Writes a text edge list in the format [`read_text_edgelist`] accepts.
pub fn write_text_edgelist<W: Write>(el: &EdgeList, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# grazelle edge list: {} vertices", el.num_vertices())?;
    match el.weights() {
        Some(ws) => {
            for (&(s, d), &wt) in el.edges().iter().zip(ws) {
                writeln!(w, "{s} {d} {wt}")?;
            }
        }
        None => {
            for &(s, d) in el.edges() {
                writeln!(w, "{s} {d}")?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Loads a text edge list from a file path, retrying transient I/O errors.
pub fn load_text<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    load_text_with(path, &LoadOptions::default())
}

/// [`load_text`] with explicit [`LoadOptions`]: the on-disk file size is
/// checked against `opts.max_bytes` before the file is read, and transient
/// I/O errors are retried per `opts.retry`.
pub fn load_text_with<P: AsRef<Path>>(path: P, opts: &LoadOptions) -> Result<EdgeList, GraphError> {
    let bytes = read_file_budgeted(path, opts)?;
    parse_text_edgelist(&bytes)
}

/// Parallel [`load_text`]: same hardened read path (byte budget, retrying
/// reader), then [`parse_text_edgelist_parallel`] on `pool`.
pub fn load_text_parallel<P: AsRef<Path>>(
    path: P,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    load_text_parallel_with(path, &LoadOptions::default(), pool)
}

/// [`load_text_parallel`] with explicit [`LoadOptions`].
pub fn load_text_parallel_with<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    let bytes = read_file_budgeted(path, opts)?;
    parse_text_edgelist_parallel(&bytes, pool)
}

/// Opens a graph file for one of the path loaders. Every one of them is
/// about to hold the file's bytes and an edge list of similar size, so this
/// is where the process's large-block allocator policy is pinned (see
/// [`grazelle_sched::alloc`]).
fn open_for_load<P: AsRef<Path>>(path: P) -> std::io::Result<std::fs::File> {
    grazelle_sched::alloc::pin_large_block_policy();
    std::fs::File::open(path)
}

/// Shared hardened file read for the text loaders: budget check on the
/// on-disk size *before* reading, then a retrying read to EOF.
fn read_file_budgeted<P: AsRef<Path>>(path: P, opts: &LoadOptions) -> Result<Vec<u8>, GraphError> {
    let f = open_for_load(path)?;
    if let Ok(md) = f.metadata() {
        if md.len() > opts.max_bytes {
            return Err(GraphError::BudgetExceeded {
                required: md.len(),
                budget: opts.max_bytes,
            });
        }
    }
    let (bytes, _) = read_retrying(f, opts.retry)?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Matrix Market format
// ---------------------------------------------------------------------------

/// Parses a Matrix Market (`.mtx`) coordinate file as a graph, with strict
/// default [`LoadOptions`]. See [`read_matrix_market_with`].
pub fn read_matrix_market<R: Read>(reader: R) -> Result<EdgeList, GraphError> {
    read_matrix_market_with(reader, &LoadOptions::default())
}

/// Parses a Matrix Market (`.mtx`) coordinate file as a graph.
///
/// The paper frames pull engines against the SpMV literature (§4 Related
/// Work), whose datasets ship in this format. Supported header:
/// `%%MatrixMarket matrix coordinate (real|pattern|integer)
/// (general|symmetric)`. Entries are 1-based `(row, col[, value])`; row →
/// vertex `row-1` gains an edge to `col-1` (symmetric matrices add the
/// mirrored edge). `real`/`integer` values become edge weights; `pattern`
/// yields an unweighted graph. Self-loop diagonal entries are kept.
///
/// Header-declared `rows`/`cols`/`nnz` are validated against
/// `opts.max_bytes` before anything is reserved, and the actual edge
/// reservation is additionally clamped — a hostile three-line header can
/// neither trigger a multi-GB allocation nor pass the final entry-count
/// check.
pub fn read_matrix_market_with<R: Read>(
    mut reader: R,
    opts: &LoadOptions,
) -> Result<EdgeList, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_matrix_market(&bytes, opts, None)
}

/// Parallel [`read_matrix_market_with`] over a byte buffer: header and size
/// line are parsed (and budget-checked) sequentially, then the entry body
/// is split on newline boundaries and parsed one range per pool thread,
/// concatenated in range order — symmetric mirroring stays adjacent to its
/// source entry, so the edge order is identical to the sequential parse.
pub fn parse_matrix_market_parallel(
    bytes: &[u8],
    opts: &LoadOptions,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    parse_matrix_market(bytes, opts, Some(pool))
}

/// Parsed header + size line of a Matrix Market file.
struct MmHeader {
    rows: u64,
    cols: u64,
    nnz: u64,
    weighted: bool,
    symmetric: bool,
    /// Byte offset where the entry body starts.
    body_start: usize,
}

/// One parsed chunk of a Matrix Market entry body. Like [`TextChunk`],
/// produced identically by the sequential (one chunk) and parallel (one per
/// thread) paths. MM errors carry no line numbers, so the merge just takes
/// the first failing chunk in order.
#[derive(Debug, Default)]
struct MmChunk {
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<f64>,
    /// Declared entries consumed (mirrored edges count once).
    seen: u64,
    err: Option<GraphError>,
}

fn parse_mm_header(bytes: &[u8], opts: &LoadOptions) -> Result<MmHeader, GraphError> {
    let mut pos = 0usize;
    let header_line = next_line(bytes, &mut pos)
        .ok_or_else(|| GraphError::Io("empty MatrixMarket file".into()))?;
    let header = std::str::from_utf8(header_line)
        .map_err(|_| GraphError::Io("stream did not contain valid UTF-8".into()))?;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" || h[2] != "coordinate" {
        return Err(GraphError::Io(format!(
            "unsupported MatrixMarket header: {header}"
        )));
    }
    let weighted = match h[3].as_str() {
        "real" | "integer" => true,
        "pattern" => false,
        other => {
            return Err(GraphError::Io(format!(
                "unsupported MatrixMarket field type '{other}'"
            )))
        }
    };
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(GraphError::Io(format!(
                "unsupported MatrixMarket symmetry '{other}'"
            )))
        }
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    while let Some(line) = next_line(bytes, &mut pos) {
        let t = trim_ascii(line);
        if t.is_empty() || t[0] == b'%' {
            continue;
        }
        size_line = Some(t);
        break;
    }
    let size_line = size_line.ok_or_else(|| GraphError::Io("missing size line".into()))?;
    let mut tp = 0usize;
    let mut dims: Vec<u64> = Vec::with_capacity(3);
    while let Some(tok) = next_token(size_line, &mut tp) {
        dims.push(
            token_str(tok)
                .parse()
                .map_err(|e| GraphError::Io(format!("bad size line: {e}")))?,
        );
    }
    if dims.len() != 3 {
        return Err(GraphError::Io("size line needs rows cols nnz".into()));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    let n = rows.max(cols);
    if n > u32::MAX as u64 + 1 {
        return Err(GraphError::VertexOutOfRange {
            vertex: n.saturating_sub(1),
            num_vertices: u32::MAX as u64 + 1,
        });
    }
    // Budget the declared sizes before reserving anything: each stored edge
    // costs 8 bytes (pair) plus 8 for a weight, doubled when symmetric
    // entries are mirrored, plus ~8 bytes/vertex of downstream build cost.
    let per_edge = (8 + if weighted { 8 } else { 0 }) * if symmetric { 2 } else { 1 };
    let required = nnz
        .checked_mul(per_edge)
        .and_then(|b| b.checked_add(n.saturating_mul(8)))
        .unwrap_or(u64::MAX);
    if required > opts.max_bytes {
        return Err(GraphError::BudgetExceeded {
            required,
            budget: opts.max_bytes,
        });
    }
    Ok(MmHeader {
        rows,
        cols,
        nnz,
        weighted,
        symmetric,
        body_start: pos,
    })
}

/// Parses one newline-delimited range of MM entry lines. Stops at the first
/// error, or as soon as this chunk *alone* exceeds the declared entry count
/// (the sequential parser's eager-surplus guard, which keeps a hostile
/// oversized body from growing the vectors unboundedly).
fn parse_mm_chunk(bytes: &[u8], h: &MmHeader, reserve: usize) -> MmChunk {
    let mut out = MmChunk {
        edges: Vec::with_capacity(reserve),
        weights: Vec::with_capacity(if h.weighted { reserve } else { 0 }),
        ..MmChunk::default()
    };
    let mut pos = 0usize;
    while let Some(raw) = next_line(bytes, &mut pos) {
        let t = trim_ascii(raw);
        if t.is_empty() || t[0] == b'%' {
            continue;
        }
        let mut tp = 0usize;
        let mut field = |what: &'static str, label: &'static str| -> Result<u64, GraphError> {
            let tok =
                next_token(t, &mut tp).ok_or_else(|| GraphError::Io(format!("missing {what}")))?;
            token_str(tok)
                .parse::<u64>()
                .map_err(|e| GraphError::Io(format!("bad {label}: {e}")))
        };
        let rc = field("row", "row").and_then(|r| field("col", "col").map(|c| (r, c)));
        let (r, c) = match rc {
            Ok(rc) => rc,
            Err(e) => {
                out.err = Some(e);
                return out;
            }
        };
        if r == 0 || c == 0 || r > h.rows || c > h.cols {
            out.err = Some(GraphError::Io(format!("entry ({r},{c}) out of bounds")));
            return out;
        }
        let (s, d) = ((r - 1) as VertexId, (c - 1) as VertexId);
        if h.weighted {
            let w = match next_token(t, &mut tp) {
                None => {
                    out.err = Some(GraphError::Io("missing value".into()));
                    return out;
                }
                Some(tok) => match token_str(tok).parse::<f64>() {
                    Ok(w) => w,
                    Err(e) => {
                        out.err = Some(GraphError::Io(format!("bad value: {e}")));
                        return out;
                    }
                },
            };
            out.weights.push(w);
            if h.symmetric && s != d {
                out.weights.push(w);
            }
        }
        out.edges.push((s, d));
        if h.symmetric && s != d {
            out.edges.push((d, s));
        }
        out.seen += 1;
        if out.seen > h.nnz {
            out.err = Some(GraphError::Io(format!(
                "more than the declared {} entries",
                h.nnz
            )));
            return out;
        }
    }
    out
}

fn parse_matrix_market(
    bytes: &[u8],
    opts: &LoadOptions,
    pool: Option<&ThreadPool>,
) -> Result<EdgeList, GraphError> {
    let h = parse_mm_header(bytes, opts)?;
    let edge_slots = if h.symmetric {
        h.nnz.saturating_mul(2)
    } else {
        h.nnz
    };
    let body = &bytes[h.body_start..];
    let chunks: Vec<MmChunk> = match pool {
        None => {
            let reserve = (edge_slots as usize).min(PREALLOC_CAP);
            vec![parse_mm_chunk(body, &h, reserve)]
        }
        Some(pool) => {
            let k = pool.num_threads();
            let reserve = (edge_slots as usize / k.max(1)).min(PREALLOC_CAP);
            let ranges = newline_chunk_ranges(body, k);
            pool.run_tasks(ranges, |_, r| parse_mm_chunk(&body[r], &h, reserve))
        }
    };
    let total_edges: usize = chunks.iter().map(|c| c.edges.len()).sum();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(total_edges);
    let mut weights: Vec<f64> = Vec::with_capacity(if h.weighted { total_edges } else { 0 });
    let mut seen = 0u64;
    for chunk in chunks {
        if let Some(e) = chunk.err {
            return Err(e);
        }
        seen += chunk.seen;
        edges.extend_from_slice(&chunk.edges);
        weights.extend_from_slice(&chunk.weights);
    }
    if seen > h.nnz {
        return Err(GraphError::Io(format!(
            "more than the declared {} entries",
            h.nnz
        )));
    }
    if seen != h.nnz {
        return Err(GraphError::Io(format!(
            "expected {} entries, found {seen}",
            h.nnz
        )));
    }
    let n = h.rows.max(h.cols) as usize;
    // An entry-less weighted matrix stays unweighted, matching the push-based
    // parser where the weight array only materialized on the first entry.
    let weights = if h.weighted && !edges.is_empty() {
        Some(weights)
    } else {
        None
    };
    EdgeList::from_parts(n, edges, weights)
}

/// Loads a Matrix Market file from a path, retrying transient I/O errors.
pub fn load_matrix_market<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    load_matrix_market_with(path, &LoadOptions::default())
}

/// [`load_matrix_market`] with explicit [`LoadOptions`].
pub fn load_matrix_market_with<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
) -> Result<EdgeList, GraphError> {
    let (bytes, _) = read_retrying(open_for_load(path)?, opts.retry)?;
    parse_matrix_market(&bytes, opts, None)
}

/// Parallel [`load_matrix_market`]: hardened read, then the chunked body
/// parse on `pool`.
pub fn load_matrix_market_parallel<P: AsRef<Path>>(
    path: P,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    load_matrix_market_parallel_with(path, &LoadOptions::default(), pool)
}

/// [`load_matrix_market_parallel`] with explicit [`LoadOptions`].
pub fn load_matrix_market_parallel_with<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    let (bytes, _) = read_retrying(open_for_load(path)?, opts.retry)?;
    parse_matrix_market(&bytes, opts, Some(pool))
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

/// Little-endian cursor over a byte slice (replaces the `bytes` crate's
/// `Buf`, which is unavailable in the offline build environment). Bounds
/// are checked once in [`decode_binary_with`] before any `get_*` call, so
/// the accessors themselves only `debug_assert`.
struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    fn new_at(data: &'a [u8], pos: usize) -> Self {
        ByteReader { data, pos }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        debug_assert!(self.remaining() >= N, "ByteReader over-read");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        out
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take::<8>())
    }
}

/// Serializes an edge list to the current (version-1, checksummed) binary
/// format:
///
/// `MAGIC | flags:u8 | n:u64 | m:u64 | (src:u32 dst:u32)*m | (weight:f64)*m? | crc32c:u32`
///
/// The flags byte packs the format version in its high nibble and
/// `FLAG_WEIGHTED` in bit 0. The trailer is the CRC32C of every preceding
/// byte, little-endian.
pub fn encode_binary(el: &EdgeList) -> Vec<u8> {
    let mut buf = encode_body(el, (FORMAT_VERSION << 4) | el.is_weighted() as u8);
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Serializes an edge list in the legacy version-0 layout: no version
/// nibble, no checksum trailer. Kept so the compatibility gate
/// ([`LoadOptions::allow_unchecksummed`]) has a writer to test against and
/// so pre-revision tooling can still be fed.
pub fn encode_binary_legacy(el: &EdgeList) -> Vec<u8> {
    encode_body(el, el.is_weighted() as u8)
}

fn encode_body(el: &EdgeList, flags: u8) -> Vec<u8> {
    let m = el.num_edges();
    let weighted = el.is_weighted();
    let cap = HEADER_LEN + m * 8 + if weighted { m * 8 } else { 0 } + TRAILER_LEN;
    let mut buf = Vec::with_capacity(cap);
    buf.extend_from_slice(&MAGIC);
    buf.push(flags);
    buf.extend_from_slice(&(el.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(m as u64).to_le_bytes());
    for &(s, d) in el.edges() {
        buf.extend_from_slice(&s.to_le_bytes());
        buf.extend_from_slice(&d.to_le_bytes());
    }
    if let Some(ws) = el.weights() {
        for &w in ws {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    buf
}

/// Deserializes the binary format with strict default [`LoadOptions`]
/// (checksum required, 1 GiB budget).
pub fn decode_binary(data: &[u8]) -> Result<EdgeList, GraphError> {
    decode_binary_with(data, &LoadOptions::default())
}

/// Deserializes the binary format produced by [`encode_binary`] (or, behind
/// `opts.allow_unchecksummed`, by [`encode_binary_legacy`]).
///
/// Validation order for version-1 files: magic → version → CRC32C over the
/// whole file minus the trailer → byte budget on the header-declared
/// `n`/`m` → exact payload length → decode. The checksum runs before the
/// size fields are trusted, so any single corrupted byte surfaces as a
/// typed error before a single byte of payload is allocated or parsed. The
/// weighted branch decodes pairs and weights in one streaming pass (two
/// cursors over the same buffer, no intermediate `Vec`s).
pub fn decode_binary_with(data: &[u8], opts: &LoadOptions) -> Result<EdgeList, GraphError> {
    if data.len() < HEADER_LEN {
        return Err(GraphError::Io("binary graph truncated (header)".into()));
    }
    let mut r = ByteReader::new(data);
    let found: [u8; 8] = r.take();
    if found != MAGIC {
        return Err(GraphError::BadMagic {
            expected: MAGIC,
            found,
        });
    }
    let flags = r.get_u8();
    let version = flags >> 4;
    match version {
        0 => {
            if !opts.allow_unchecksummed {
                return Err(GraphError::UnchecksummedRejected);
            }
        }
        FORMAT_VERSION => {
            if data.len() < HEADER_LEN + TRAILER_LEN {
                return Err(GraphError::Io("binary graph truncated (trailer)".into()));
            }
            let stored = u32::from_le_bytes(data[data.len() - TRAILER_LEN..].try_into().unwrap());
            let computed = crc32c(&data[..data.len() - TRAILER_LEN]);
            if stored != computed {
                return Err(GraphError::ChecksumMismatch { stored, computed });
            }
        }
        v => return Err(GraphError::UnsupportedVersion(v)),
    }
    let weighted = flags & FLAG_WEIGHTED != 0;
    let n = r.get_u64_le();
    let m = r.get_u64_le();
    // Budget the header-declared sizes before any allocation: payload bytes
    // plus ~8 bytes/vertex of downstream build cost.
    let payload = m
        .checked_mul(if weighted { 16 } else { 8 })
        .ok_or_else(|| GraphError::Io("binary graph edge count overflows".into()))?;
    let required = payload.saturating_add(n.saturating_mul(8));
    if required > opts.max_bytes {
        return Err(GraphError::BudgetExceeded {
            required,
            budget: opts.max_bytes,
        });
    }
    let need = payload as usize;
    let avail = data.len()
        - HEADER_LEN
        - if version == FORMAT_VERSION {
            TRAILER_LEN
        } else {
            0
        };
    if version == FORMAT_VERSION {
        // Checksummed files must match the declared payload exactly; any
        // surplus would be unchecked bytes a writer never produced.
        if avail != need {
            return Err(GraphError::Io(format!(
                "binary graph payload length mismatch: header declares {need} bytes, file carries {avail}"
            )));
        }
    } else if avail < need {
        return Err(GraphError::Io(format!(
            "binary graph truncated: need {need} payload bytes, have {avail}"
        )));
    }
    let mut el = EdgeList::with_capacity(n as usize, (m as usize).min(PREALLOC_CAP));
    if weighted {
        // Single streaming pass: one cursor over the pair region, one over
        // the weight region, pushing edge+weight together.
        let mut pairs = ByteReader::new_at(data, HEADER_LEN);
        let mut ws = ByteReader::new_at(data, HEADER_LEN + (m as usize) * 8);
        for _ in 0..m {
            let s = pairs.get_u32_le();
            let d = pairs.get_u32_le();
            let w = ws.get_f64_le();
            el.push_weighted(s, d, w)?;
        }
    } else {
        let mut pairs = ByteReader::new_at(data, HEADER_LEN);
        for _ in 0..m {
            let s = pairs.get_u32_le();
            let d = pairs.get_u32_le();
            el.push(s, d)?;
        }
    }
    Ok(el)
}

/// Reads and decodes a binary edge list from any [`Read`], absorbing
/// transient I/O errors per `opts.retry`. Returns the decoded list plus the
/// retry counters (clean runs report zero).
pub fn read_binary<R: Read>(
    reader: R,
    opts: &LoadOptions,
) -> Result<(EdgeList, RetryStats), GraphError> {
    let (bytes, stats) = read_retrying(reader, opts.retry)?;
    Ok((decode_binary_with(&bytes, opts)?, stats))
}

/// Saves an edge list to a binary file (current checksummed format).
pub fn save_binary<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), GraphError> {
    std::fs::write(path, encode_binary(el))?;
    Ok(())
}

/// Loads an edge list from a binary file with strict default options.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    load_binary_with(path, &LoadOptions::default())
}

/// [`load_binary`] with explicit [`LoadOptions`]. The on-disk file size is
/// checked against the byte budget before the file is read.
pub fn load_binary_with<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
) -> Result<EdgeList, GraphError> {
    let f = open_for_load(path)?;
    if let Ok(md) = f.metadata() {
        if md.len()
            > opts
                .max_bytes
                .saturating_add((HEADER_LEN + TRAILER_LEN) as u64)
        {
            return Err(GraphError::BudgetExceeded {
                required: md.len(),
                budget: opts.max_bytes,
            });
        }
    }
    read_binary(f, opts).map(|(el, _)| el)
}

/// Loads a graph (both orientations) from a binary edge-list file.
pub fn load_graph_binary<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    Graph::from_edgelist(&load_binary(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultyReader, IoFaultPlan};

    fn sample() -> EdgeList {
        EdgeList::from_pairs(6, &[(0, 1), (2, 3), (4, 5), (5, 0)]).unwrap()
    }

    fn weighted_sample() -> EdgeList {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 3, -1.5).unwrap();
        el.push_weighted(3, 2, 1e300).unwrap();
        el.push_weighted(1, 1, f64::NEG_INFINITY).unwrap();
        el
    }

    /// Hand-assembles a version-1 file with a *valid* checksum, so budget
    /// and length validation can be tested independently of CRC failures.
    fn craft_v1(n: u64, m: u64, weighted: bool, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push((FORMAT_VERSION << 4) | weighted as u8);
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn text_roundtrip_unweighted() {
        let el = sample();
        let mut buf = Vec::new();
        write_text_edgelist(&el, &mut buf).unwrap();
        let back = read_text_edgelist(&buf[..]).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
    }

    #[test]
    fn text_roundtrip_weighted() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 0.5).unwrap();
        el.push_weighted(1, 2, 2.25).unwrap();
        let mut buf = Vec::new();
        write_text_edgelist(&el, &mut buf).unwrap();
        let back = read_text_edgelist(&buf[..]).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.weights().unwrap(), el.weights().unwrap());
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n  # indented comment\n1 2\n";
        let el = read_text_edgelist(text.as_bytes()).unwrap();
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text_edgelist("0".as_bytes()).is_err());
        assert!(read_text_edgelist("a b".as_bytes()).is_err());
        assert!(read_text_edgelist("0 1 x".as_bytes()).is_err());
        // Mixing weighted and unweighted lines fails either way around.
        assert!(read_text_edgelist("0 1\n1 2 3.5".as_bytes()).is_err());
        assert!(read_text_edgelist("0 1 3.5\n1 2".as_bytes()).is_err());
    }

    #[test]
    fn vertex_tokens_parse_like_str_parse() {
        let reference = |tok: &[u8]| token_str(tok).parse::<u64>().map_err(|e| e.to_string());
        for tok in [
            &b""[..],
            b"0",
            b"007",
            b"+5",
            b"-1",
            b"1e3",
            b"12x",
            b"9999999999999999999",  // 19 digits: the longest folded directly
            b"18446744073709551615", // u64::MAX, 20 digits
            b"18446744073709551616", // overflow
            b"00000000000000000000001",
            b"\xff1",
        ] {
            assert_eq!(parse_u64_token(tok), reference(tok), "{tok:?}");
        }
    }

    #[test]
    fn chunks_merge_in_order_around_an_empty_one() {
        // Three parsed chunks: a leading comment-only one, then two with
        // edges; the first of those donates its buffer.
        let chunks = ["# c\n\n", "0 1 0.5\n1 2 1.5\n2 3 2.5\n", "3 4 3.5\n"]
            .map(|t| parse_text_chunk(t.as_bytes()));
        let el = merge_text_chunks(chunks.into()).unwrap();
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(el.weights().unwrap(), &[0.5, 1.5, 2.5, 3.5]);
        assert_eq!(el.num_vertices(), 5);
    }

    #[test]
    fn binary_roundtrip_unweighted() {
        let el = sample();
        let bytes = encode_binary(&el);
        let back = decode_binary(&bytes).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
        assert!(!back.is_weighted());
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let el = weighted_sample();
        let back = decode_binary(&encode_binary(&el)).unwrap();
        assert_eq!(back.edges(), el.edges());
        let a: Vec<u64> = back
            .weights()
            .unwrap()
            .iter()
            .map(|w| w.to_bits())
            .collect();
        let b: Vec<u64> = el.weights().unwrap().iter().map(|w| w.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        let el = sample();
        let bytes = encode_binary(&el);
        let mut corrupt = bytes.to_vec();
        corrupt[0] = b'X';
        assert!(matches!(
            decode_binary(&corrupt),
            Err(GraphError::BadMagic { .. })
        ));
        assert!(decode_binary(&bytes[..bytes.len() - 4]).is_err());
        assert!(decode_binary(&bytes[..10]).is_err());
    }

    #[test]
    fn binary_truncated_at_every_offset_errors_cleanly() {
        // Header, payload, and trailer truncation — every prefix of a valid
        // file must produce a typed error, never a panic and never success.
        for el in [sample(), weighted_sample()] {
            let bytes = encode_binary(&el);
            for cut in 0..bytes.len() {
                let res = decode_binary(&bytes[..cut]);
                assert!(res.is_err(), "prefix of {cut}/{} decoded", bytes.len());
            }
            assert!(decode_binary(&bytes).is_ok());
        }
    }

    #[test]
    fn binary_corrupt_any_single_byte_errors() {
        // With checksums on, flipping any single byte anywhere in the file
        // must surface as a typed error.
        for el in [sample(), weighted_sample()] {
            let bytes = encode_binary(&el);
            for i in 0..bytes.len() {
                for mask in [0x01u8, 0x80] {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= mask;
                    assert!(
                        decode_binary(&corrupt).is_err(),
                        "flip {mask:#x} at byte {i} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn binary_rejects_trailing_garbage() {
        let mut bytes = encode_binary(&sample());
        bytes.push(0);
        assert!(decode_binary(&bytes).is_err());
    }

    #[test]
    fn legacy_files_need_explicit_opt_in() {
        let el = sample();
        let legacy = encode_binary_legacy(&el);
        assert!(matches!(
            decode_binary(&legacy),
            Err(GraphError::UnchecksummedRejected)
        ));
        let opts = LoadOptions::strict().with_allow_unchecksummed(true);
        let back = decode_binary_with(&legacy, &opts).unwrap();
        assert_eq!(back.edges(), el.edges());

        // Weighted legacy files roundtrip too.
        let el = weighted_sample();
        let back = decode_binary_with(&encode_binary_legacy(&el), &opts).unwrap();
        assert_eq!(back.weights().unwrap(), el.weights().unwrap());
    }

    #[test]
    fn unknown_version_nibble_is_rejected() {
        let mut bytes = encode_binary_legacy(&sample());
        bytes[8] = 2 << 4; // future version, no trailer to validate
        let opts = LoadOptions::strict().with_allow_unchecksummed(true);
        assert!(matches!(
            decode_binary_with(&bytes, &opts),
            Err(GraphError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn hostile_header_hits_budget_before_allocation() {
        // A 29-byte file (valid CRC!) declaring 2^60 edges must be refused
        // by the budget check, not by an allocation attempt.
        let crafted = craft_v1(4, 1 << 60, false, &[]);
        match decode_binary(&crafted) {
            // Budget fires on the declared m even though the payload-length
            // check would also have caught the missing bytes.
            Err(GraphError::BudgetExceeded { budget, .. }) => {
                assert_eq!(budget, LoadOptions::DEFAULT_BUDGET);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Hostile vertex count alone trips it too.
        let crafted = craft_v1(1 << 60, 0, false, &[]);
        assert!(matches!(
            decode_binary(&crafted),
            Err(GraphError::BudgetExceeded { .. })
        ));
        // Edge-count × entry-size overflow is a typed error, not a wrap.
        let crafted = craft_v1(4, u64::MAX / 2, true, &[]);
        assert!(decode_binary(&crafted).is_err());
    }

    #[test]
    fn payload_length_must_match_header_exactly() {
        // Declares 2 edges but carries 1: length mismatch (CRC is valid).
        let payload = [0u8; 8];
        let crafted = craft_v1(4, 2, false, &payload);
        assert!(matches!(decode_binary(&crafted), Err(GraphError::Io(_))));
    }

    #[test]
    fn read_binary_survives_transient_errors() {
        let el = sample();
        let bytes = encode_binary(&el);
        let reader = FaultyReader::new(
            &bytes[..],
            IoFaultPlan::clean().with_seed(11).with_transient_errors(4),
        );
        let (back, stats) = read_binary(reader, &LoadOptions::default()).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(stats.retries, 4);
    }

    #[test]
    fn read_binary_detects_injected_bitflip() {
        let bytes = encode_binary(&sample());
        let reader = FaultyReader::new(
            &bytes[..],
            IoFaultPlan::clean().with_bitflip(HEADER_LEN as u64 + 3, 0x20),
        );
        assert!(read_binary(reader, &LoadOptions::default()).is_err());
    }

    #[test]
    fn read_binary_detects_injected_truncation() {
        let bytes = encode_binary(&sample());
        let reader = FaultyReader::new(
            &bytes[..],
            IoFaultPlan::clean().with_truncation(bytes.len() as u64 - 7),
        );
        assert!(read_binary(reader, &LoadOptions::default()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("grazelle_io_test.bin");
        let el = sample();
        save_binary(&el, &path).unwrap();
        let g = load_graph_binary(&path).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_binary_enforces_file_size_budget() {
        let dir = std::env::temp_dir();
        let path = dir.join("grazelle_io_budget_test.bin");
        save_binary(&sample(), &path).unwrap();
        let opts = LoadOptions::strict().with_max_bytes(8);
        assert!(matches!(
            load_binary_with(&path, &opts),
            Err(GraphError::BudgetExceeded { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_market_general_real() {
        let mtx = "%%MatrixMarket matrix coordinate real general\n\
                   % comment\n\
                   3 3 3\n\
                   1 2 1.5\n\
                   2 3 2.5\n\
                   3 1 3.5\n";
        let el = read_matrix_market(mtx.as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(el.weights().unwrap(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn matrix_market_symmetric_pattern_mirrors() {
        let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   4 4 3\n\
                   2 1\n\
                   3 3\n\
                   4 2\n";
        let el = read_matrix_market(mtx.as_bytes()).unwrap();
        // Off-diagonal entries mirrored; diagonal kept once.
        let mut edges = el.edges().to_vec();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 3), (2, 2), (3, 1)]);
        assert!(!el.is_weighted());
    }

    #[test]
    fn matrix_market_rejects_malformed() {
        // Wrong object/format.
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1 1\n".as_bytes())
                .is_err()
        );
        // Unsupported field type.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()
        )
        .is_err());
        // Out-of-bounds entry.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n".as_bytes()
        )
        .is_err());
        // Entry-count mismatch.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n".as_bytes()
        )
        .is_err());
        // 1-based index zero.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n".as_bytes()
        )
        .is_err());
        // Empty file.
        assert!(read_matrix_market("".as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_hostile_header_is_refused_before_allocation() {
        // Three lines, declared sizes in the exabytes: the budget check
        // must reject this without reserving anything.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   1000000000 1000000000 999999999999999999\n\
                   1 1\n";
        assert!(matches!(
            read_matrix_market(mtx.as_bytes()),
            Err(GraphError::BudgetExceeded { .. })
        ));
        // Dims beyond the u32 vertex space are refused outright.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   99999999999 1 1\n\
                   1 1\n";
        assert!(matches!(
            read_matrix_market(mtx.as_bytes()),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        // Declared-size overflow saturates into a budget error, not a wrap.
        let mtx = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n4 4 {}\n1 1 1.0\n",
            u64::MAX
        );
        assert!(matches!(
            read_matrix_market(mtx.as_bytes()),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn matrix_market_rejects_surplus_entries_eagerly() {
        // Declares 1 entry, supplies 3: refused at entry 2, not after
        // buffering everything.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 1\n1 1\n1 2\n2 1\n";
        assert!(read_matrix_market(mtx.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rectangular_uses_max_dimension() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n2 5 1\n1 5\n";
        let el = read_matrix_market(mtx.as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.edges(), &[(0, 4)]);
    }

    #[test]
    fn empty_text_gives_empty_list() {
        let el = read_text_edgelist("".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Text roundtrip is lossless for weighted and unweighted lists.
            #[test]
            fn prop_text_roundtrip(
                edges in proptest::collection::vec((0u32..40, 0u32..40), 1..80),
                weights in proptest::option::of(
                    proptest::collection::vec(-1e6f64..1e6, 80),
                ),
            ) {
                let mut el = EdgeList::new(40);
                match &weights {
                    Some(ws) => {
                        for (&(s, d), &w) in edges.iter().zip(ws) {
                            el.push_weighted(s, d, w).unwrap();
                        }
                    }
                    None => {
                        for &(s, d) in &edges {
                            el.push(s, d).unwrap();
                        }
                    }
                }
                let mut buf = Vec::new();
                write_text_edgelist(&el, &mut buf).unwrap();
                let back = read_text_edgelist(&buf[..]).unwrap();
                prop_assert_eq!(back.edges(), el.edges());
                match (back.weights(), el.weights()) {
                    (Some(a), Some(b)) => prop_assert_eq!(a, b),
                    (None, None) => {}
                    other => prop_assert!(false, "weight presence mismatch {:?}", other.0.map(|w| w.len())),
                }
            }

            /// Binary roundtrip is bit-exact for any weights, including
            /// infinities and NaN payloads.
            #[test]
            fn prop_binary_roundtrip_exact(
                edges in proptest::collection::vec((0u32..30, 0u32..30), 0..60),
                bits in proptest::collection::vec(any::<u64>(), 60),
            ) {
                let mut el = EdgeList::new(30);
                for (&(s, d), &b) in edges.iter().zip(&bits) {
                    el.push_weighted(s, d, f64::from_bits(b)).unwrap();
                }
                let back = decode_binary(&encode_binary(&el)).unwrap();
                prop_assert_eq!(back.edges(), el.edges());
                let a: Vec<u64> = back.weights().unwrap_or(&[]).iter().map(|w| w.to_bits()).collect();
                let b: Vec<u64> = el.weights().unwrap_or(&[]).iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(a, b);
            }

            /// Encode → corrupt one byte → decode never panics, and with
            /// checksums on it always errors.
            #[test]
            fn prop_corrupt_one_byte_always_errors(
                edges in proptest::collection::vec((0u32..30, 0u32..30), 0..40),
                bits in proptest::collection::vec(any::<u64>(), 40),
                weighted in any::<bool>(),
                pos_seed in any::<usize>(),
                mask in 1u8..=255,
            ) {
                let mut el = EdgeList::new(30);
                if weighted {
                    for (&(s, d), &b) in edges.iter().zip(&bits) {
                        el.push_weighted(s, d, f64::from_bits(b)).unwrap();
                    }
                } else {
                    for &(s, d) in &edges {
                        el.push(s, d).unwrap();
                    }
                }
                let mut bytes = encode_binary(&el);
                let pos = pos_seed % bytes.len();
                bytes[pos] ^= mask;
                // Strict mode: the corruption must be detected.
                prop_assert!(decode_binary(&bytes).is_err(),
                    "corruption at byte {} mask {:#x} undetected", pos, mask);
                // Lenient (legacy-tolerant) mode may accept some corruptions
                // of the non-header bytes, but must never panic.
                let lenient = LoadOptions::strict().with_allow_unchecksummed(true);
                let _ = decode_binary_with(&bytes, &lenient);
            }

            /// Truncation at any offset errors in strict mode — proptest
            /// variant of the exhaustive unit test, over arbitrary lists.
            #[test]
            fn prop_truncation_always_errors(
                edges in proptest::collection::vec((0u32..30, 0u32..30), 1..40),
                cut_seed in any::<usize>(),
            ) {
                let el = EdgeList::from_pairs(30, &edges).unwrap();
                let bytes = encode_binary(&el);
                let cut = cut_seed % bytes.len();
                prop_assert!(decode_binary(&bytes[..cut]).is_err());
            }
        }
    }
}
