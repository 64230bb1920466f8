//! Graph serialization: whitespace text edge lists, Matrix Market, and a
//! compact binary format (the moral equivalent of Grazelle's `-push`/`-pull`
//! binary inputs, except one file carries both orientations' source edge
//! list).
//!
//! Each format has one reader over any [`Read`] and one path loader, both
//! taking [`LoadOptions`]; where a format parses in parallel, the loader
//! takes an `Option<&ThreadPool>` too, and `None` parses on the calling
//! thread.
//!
//! # Hardened ingestion
//!
//! The binary format is versioned and checksummed: the `flags` byte carries
//! a version nibble in its high bits, and every file ends in a CRC32C
//! trailer over every preceding byte. Any version other than
//! [`FORMAT_VERSION`] is refused, and header-declared sizes are validated
//! against a byte budget *before* any allocation so a hostile three-line
//! header cannot OOM the loader. The text and Matrix Market loaders stream
//! their input in blocks — each pool worker reads and parses its own
//! newline-aligned share of a file, so the file is never held whole — and
//! the binary loaders read it whole, pre-sized. Every read absorbs bounded
//! transient I/O errors (`Interrupted`/`WouldBlock`) with backoff, and no
//! loader reads past its byte budget.

use crate::checksum::crc32c;
use crate::edgelist::EdgeList;
use crate::faults::{read_retried, read_retrying_within, RetryPolicy, RetryStats};
use crate::types::{GraphError, VertexId};
use grazelle_sched::alloc::{reserved, RangeWriter, WorkerFilled};
use grazelle_sched::{run_shares, ThreadPool};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes for the binary format.
pub const MAGIC: [u8; 8] = *b"GRZL0001";

/// The binary format version, stored in the high nibble of the flags byte;
/// the only one decoded. Its files end in a CRC32C trailer.
pub const FORMAT_VERSION: u8 = 1;

/// Flags bit 0: the payload carries an 8-byte weight per edge.
const FLAG_WEIGHTED: u8 = 0x01;

/// `MAGIC | flags:u8 | n:u64 | m:u64`.
const HEADER_LEN: usize = 8 + 1 + 16;

/// CRC32C trailer length.
const TRAILER_LEN: usize = 4;

/// Edge reservation cap for loaders that cannot see the input size (e.g. a
/// generic `Read`): headers may declare any count, so preallocation is
/// clamped here and the `Vec` grows normally for legitimate inputs.
const PREALLOC_CAP: usize = 1 << 16;

/// Knobs governing how much a loader will trust and spend on an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Upper bound, in bytes, on what the header-declared sizes may imply
    /// (payload plus ~8 bytes/vertex of downstream build cost), checked
    /// before any allocation, and on the input bytes a loader reads.
    pub max_bytes: u64,
    /// Retry policy for transient I/O errors in the `load_*`/`read_*`
    /// entry points.
    pub retry: RetryPolicy,
}

impl LoadOptions {
    /// Default byte budget: 1 GiB. Raise it explicitly for larger inputs.
    pub const DEFAULT_BUDGET: u64 = 1 << 30;

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
    /// A 1 GiB budget and the default retry policy.
    fn default() -> Self {
        LoadOptions {
            max_bytes: Self::DEFAULT_BUDGET,
            retry: RetryPolicy::DEFAULT,
        }
    }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Bytes one streaming read asks for. A worker holds one block and the
/// partial line it carries into the next, never the file.
const BLOCK_BYTES: usize = 256 << 10;

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

/// The two ids and the optional weight of a line the fast path read.
type Fields = (VertexId, VertexId, Option<f64>);

/// Powers of ten that are exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

fn skip_blanks(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t')) {
        i += 1;
    }
    i
}

/// The run of digits that opens `x`'s bytes in memory order: its length,
/// 0 to 8, and its value, which means something only for lengths 1 to 7.
/// No branch per digit.
#[inline]
fn swar_digits(x: u64) -> (u64, usize) {
    const LOW: u64 = 0x0F0F_0F0F_0F0F_0F0F;
    const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    const SIXES: u64 = 0x0606_0606_0606_0606;
    // A byte is a digit iff its high nibble is 3 before and after adding
    // 6. A carry out of a byte ≥ 0xFA only disturbs the bytes after it,
    // and that byte is not a digit.
    let not_digit = ((x & HIGH) ^ ZEROS) | ((x.wrapping_add(SIXES) & HIGH) ^ ZEROS);
    let len = (not_digit.trailing_zeros() / 8) as usize;
    // Digit values right-aligned, most significant first in memory order,
    // then folded pairwise: 1+1, 2+2, 4+4 digits.
    let mut v = (x & LOW).wrapping_shl(8 * (8 - len as u32));
    v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF;
    (v, len)
}

/// A run of one to nineteen digits at `i`, folded, and where it ends.
/// Runs of up to seven digits are read eight bytes at a time
/// ([`swar_digits`]).
fn fast_digits(b: &[u8], mut i: usize) -> Option<(u64, usize)> {
    if let Some(word) = b.get(i..i + 8) {
        match swar_digits(u64::from_le_bytes(word.try_into().expect("eight bytes"))) {
            (_, 0) => return None,
            (v, len @ 1..=7) => return Some((v, i + len)),
            _ => {}
        }
    }
    let start = i;
    let mut v = 0u64;
    while let Some(&c) = b.get(i).filter(|c| c.is_ascii_digit()) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        i += 1;
    }
    (1..=19).contains(&(i - start)).then_some((v, i))
}

/// A weight in Clinger's exact range: `[+-][digits][.digits]`, at least
/// one digit, whose digits make a mantissa `m ≤ 2^53` with `k ≤ 22` of
/// them after the point (a digit run here is at most 19 long). Then `m`
/// and `10^k` are exact doubles and `m / 10^k` is one correctly rounded
/// division — the value `str::parse` returns. `None` otherwise.
fn fast_decimal(b: &[u8], i: usize) -> Option<(f64, usize)> {
    let neg = b.get(i) == Some(&b'-');
    let i = i + usize::from(matches!(b.get(i), Some(b'-' | b'+')));
    let (int, j) = fast_digits(b, i).unwrap_or((0, i));
    let (frac, e) = match b.get(j) {
        Some(b'.') => fast_digits(b, j + 1).unwrap_or((0, j + 1)),
        _ => (0, j),
    };
    let k = e.saturating_sub(j + 1);
    if j - i + k == 0 || k >= POW10.len() {
        return None;
    }
    let m = int
        .checked_mul(10u64.checked_pow(k as u32)?)?
        .checked_add(frac)?;
    if m > 1 << 53 {
        return None;
    }
    let v = m as f64 / POW10[k];
    Some((if neg { -v } else { v }, e))
}

/// The one-pass fast path: `src<blank>dst[<blank>weight]<blank>*[\r]\n`
/// at the start of `b`, blanks being spaces and tabs, ids of at most 19
/// digits that fit a [`VertexId`], and a weight in [`fast_decimal`]'s
/// range. Returns the fields and the line's length with its newline.
/// Every other line — comments, blank lines, other whitespace, extra
/// tokens, exponents, `inf`/`NaN`, errors, a last line without a newline —
/// is `None`, and the token path reads it as it always did.
///
/// Most lines are read from their first sixteen bytes by [`window_line`],
/// inlined into the line loop; the rest (runs of blanks, ids of eight
/// digits or more, lines whose window runs past `b`) by [`general_line`].
#[inline]
fn fast_line(b: &[u8]) -> Option<(Fields, usize)> {
    window_line(b).or_else(|| general_line(b))
}

/// [`fast_line`] for every form it takes.
#[inline(never)]
fn general_line(b: &[u8]) -> Option<(Fields, usize)> {
    let (s, i) = fast_digits(b, 0)?;
    let j = skip_blanks(b, i);
    let (d, i) = fast_digits(b, j).filter(|_| j > i)?;
    let j = skip_blanks(b, i);
    let (w, i) = match b.get(j) {
        Some(&c) if j > i && (c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.')) => {
            let (w, e) = fast_decimal(b, j)?;
            (Some(w), skip_blanks(b, e))
        }
        _ => (None, j),
    };
    let i = i + usize::from(b.get(i) == Some(&b'\r'));
    let ids = (VertexId::try_from(s).ok()?, VertexId::try_from(d).ok()?);
    (b.get(i) == Some(&b'\n')).then_some(((ids.0, ids.1, w), i + 1))
}

/// [`fast_line`] for the common form, read from one 16-byte window of
/// `b`: two ids of one to seven digits, one blank between them, then
/// `\n`, `\r\n` or one blank and a weight ([`fast_decimal`], which may run
/// past the window) ending in `[\r]\n`. One digit fold per id and a
/// compare per separator, no loop. `None` for any other line, which
/// [`general_line`] then reads; the two agree wherever this one answers.
#[inline(always)]
fn window_line(b: &[u8]) -> Option<(Fields, usize)> {
    let w = u128::from_le_bytes(*b.first_chunk::<16>()?);
    let (s, i) = swar_digits(w as u64);
    if !(1..=7).contains(&i) || !matches!(b[i], b' ' | b'\t') {
        return None;
    }
    // Bytes i + 1 .. i + 9, inside the window since i ≤ 7.
    let (d, n) = swar_digits((w >> (8 * (i + 1))) as u64);
    if !(1..=7).contains(&n) {
        return None;
    }
    // Seven digits at most: both ids fit a `VertexId`.
    let (s, d) = (s as VertexId, d as VertexId);
    let e = i + 1 + n;
    let (weight, e) = if matches!(b[e], b' ' | b'\t') {
        let (v, e) = fast_decimal(b, e + 1)?;
        (Some(v), e)
    } else {
        (None, e)
    };
    match (b.get(e), b.get(e + 1)) {
        (Some(b'\n'), _) => Some(((s, d, weight), e + 1)),
        (Some(b'\r'), Some(b'\n')) => Some(((s, d, weight), e + 2)),
        _ => None,
    }
}

/// The one line loop of both text formats: hands `chunk` each whole line
/// of `bytes` that starts before `limit` — a run of them at once where
/// [`Scan::run`] takes one, the others one by one with their fields if
/// [`fast_line`] read them — until [`Scan::line`] returns false. A partial
/// last line is left for the next block unless at `eof`. Returns the bytes
/// consumed, `None` once done.
fn scan_lines(chunk: &mut impl Scan, bytes: &[u8], eof: bool, limit: usize) -> Option<usize> {
    let mut p = 0;
    loop {
        p += chunk.run(&bytes[p..], limit.saturating_sub(p));
        if p >= bytes.len() {
            return Some(p);
        }
        if p >= limit {
            return None;
        }
        let rest = &bytes[p..];
        let (fields, len) = match fast_line(rest) {
            Some((f, len)) => (Some(f), len),
            None => match rest.iter().position(|&c| c == b'\n') {
                Some(i) => (None, i + 1),
                None if eof => (None, rest.len()),
                None => return Some(p),
            },
        };
        if !chunk.line(fields, &rest[..len]) {
            return None;
        }
        p += len;
    }
}

/// A per-worker parser the block reader feeds through [`scan_lines`].
trait Scan: Send + Sized {
    /// One whole line, with its fields if [`fast_line`] read them. False
    /// stops the scan.
    fn line(&mut self, fields: Option<Fields>, raw: &[u8]) -> bool;

    /// Takes whole lines from the start of `b`, each starting before
    /// `limit`, as [`line`](Self::line) would take them one by one, for as
    /// long as it can do so in one go; returns their bytes. None by
    /// default.
    fn run(&mut self, _b: &[u8], _limit: usize) -> usize {
        0
    }

    /// Feeds the lines of `bytes` to the parser; see [`scan_lines`].
    fn scan(&mut self, bytes: &[u8], eof: bool, limit: usize) -> Option<usize> {
        scan_lines(self, bytes, eof, limit)
    }
}

/// One worker's reader of `src`, in blocks: each read is retried per
/// `opts.retry`, and the input is refused once read past `opts.max_bytes`.
struct Blocks<R> {
    src: R,
    buf: Vec<u8>,
    /// `buf[start..end]` is read and not yet consumed.
    start: usize,
    end: usize,
    /// Input offset of `buf[0]`.
    base: u64,
    eof: bool,
    opts: LoadOptions,
    stats: RetryStats,
}

impl<R: Read> Blocks<R> {
    fn new(src: R, base: u64, opts: &LoadOptions, block: usize) -> Self {
        Blocks {
            src,
            buf: vec![0; block.max(1)],
            start: 0,
            end: 0,
            base,
            eof: false,
            opts: *opts,
            stats: RetryStats::default(),
        }
    }

    fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Moves the unconsumed bytes to the front and reads once more, growing
    /// the buffer only when one line fills it.
    fn fill(&mut self) -> Result<(), GraphError> {
        self.buf.copy_within(self.start..self.end, 0);
        self.base += self.start as u64;
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.end, 0);
        }
        let n = read_retried(
            &mut self.src,
            &mut self.buf[self.end..],
            self.opts.retry,
            &mut self.stats,
        )?;
        self.end += n;
        self.eof = n == 0;
        let read_to = self.base + self.end as u64;
        if read_to > self.opts.max_bytes {
            return Err(GraphError::BudgetExceeded {
                required: read_to,
                budget: self.opts.max_bytes,
            });
        }
        Ok(())
    }

    /// Feeds `chunk` the lines that start before input offset `to`. With
    /// `seek`, the reader sits one byte before its share: the line under
    /// way there belongs to the previous share and is skipped.
    fn stream(&mut self, mut seek: bool, to: u64, chunk: &mut impl Scan) -> Result<(), GraphError> {
        loop {
            self.fill()?;
            if seek {
                match self.data().iter().position(|&c| c == b'\n') {
                    Some(i) => {
                        self.start += i + 1;
                        seek = false;
                    }
                    None if self.eof => return Ok(()),
                    None => {
                        self.start = self.end;
                        continue;
                    }
                }
            }
            let line_start = self.base + self.start as u64;
            if line_start >= to {
                return Ok(());
            }
            let limit = usize::try_from(to - line_start).unwrap_or(usize::MAX);
            match chunk.scan(self.data(), self.eof, limit) {
                Some(used) if !self.eof => self.start += used,
                _ => return Ok(()),
            }
        }
    }
}

/// Positional reads of a file shared by the workers of one load.
struct At<'a> {
    file: &'a std::fs::File,
    pos: u64,
}

impl Read for At<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        #[cfg(unix)]
        let n = std::os::unix::fs::FileExt::read_at(self.file, buf, self.pos)?;
        #[cfg(windows)]
        let n = std::os::windows::fs::FileExt::seek_read(self.file, buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Streams the rest of `head`'s file into one chunk, or — for a regular
/// file of known length on a pool — into one chunk per worker, each taking
/// the lines that start in its share of the rest; the last share runs to
/// end of file. Chunks come back in share order, and the first share's
/// read failure wins.
///
/// `new(bytes)` makes a chunk that will be given `bytes` of the file
/// (0 when the length is unknown). The first chunk is told the whole rest
/// of the file: it is the one the merge grows to the whole list.
fn stream_file<C: Scan>(
    mut head: Blocks<&std::fs::File>,
    len: Option<u64>,
    pool: Option<&ThreadPool>,
    new: impl Fn(u64) -> C + Sync,
) -> Result<Vec<C>, GraphError> {
    let start = head.base + head.start as u64;
    let (pool, len) = match (pool, len) {
        (Some(pool), Some(len)) if pool.num_threads() > 1 && len > start => (pool, len),
        _ => {
            let mut chunk = new(len.map_or(0, |len| len.saturating_sub(start)));
            head.stream(false, u64::MAX, &mut chunk)?;
            return Ok(vec![chunk]);
        }
    };
    let k = pool.num_threads() as u128;
    let cut = |i: u128| start + (u128::from(len - start) * i / k) as u64;
    let shares: Vec<_> = (0..k)
        .map(|i| (cut(i), (i + 1 < k).then(|| cut(i + 1))))
        .collect();
    let (file, opts, block) = (head.src, &head.opts, head.buf.len());
    let chunks = pool.run_tasks(shares, |_, (from, to)| {
        // A share that starts past `start` may start inside a line.
        let seek = from > start;
        let at = from - u64::from(seek);
        let bytes = if seek {
            to.unwrap_or(len) - from
        } else {
            len - start
        };
        let mut chunk = new(bytes);
        let mut blocks = Blocks::new(At { file, pos: at }, at, opts, block);
        blocks.stream(seek, to.unwrap_or(u64::MAX), &mut chunk)?;
        Ok(chunk)
    });
    chunks.into_iter().collect()
}

/// The length of `file` if it is a regular file, after checking the byte
/// budget against it. FIFOs and `/proc` files have none that counts.
fn budgeted_len(file: &std::fs::File, opts: &LoadOptions) -> Result<Option<u64>, GraphError> {
    let Ok(md) = file.metadata() else {
        return Ok(None);
    };
    if md.len() > opts.max_bytes {
        return Err(GraphError::BudgetExceeded {
            required: md.len(),
            budget: opts.max_bytes,
        });
    }
    Ok(md.is_file().then_some(md.len()))
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
/// (one per worker for the parallel paths, a single one for the
/// sequential paths) and merged in deterministic order by
/// [`merge_text_chunks`], so every path shares every byte of parsing logic.
#[derive(Debug, Default)]
struct TextChunk {
    /// Input bytes whose edges the first scan makes room for
    /// ([`TextChunk::presize`]); 0 to grow as edges come.
    presize: u64,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<f64>,
    max_v: VertexId,
    /// Lines consumed (for absolute line numbering of later chunks).
    lines: usize,
    /// Chunk-relative line of the first edge, if any.
    first_edge_line: usize,
    /// Weighted-mode of this chunk's edges (`None` when the chunk has none).
    weighted: Option<bool>,
    /// First failure, at its chunk-relative line. Parsing stops here.
    err: Option<(usize, TextErrKind)>,
}

impl Scan for TextChunk {
    fn line(&mut self, fields: Option<Fields>, raw: &[u8]) -> bool {
        let line = self.lines;
        self.lines += 1;
        match fields {
            Some((s, d, w)) => self.edge(line, s, d, w),
            None => self.token_line(line, raw),
        }
        self.err.is_none()
    }

    /// Once the chunk's mode is set: every line [`window_line`] reads
    /// whose weight agrees with the mode, in one loop that keeps its
    /// counters in registers. Any other line ends the run and goes to
    /// [`line`](Scan::line), which reports it as it always did.
    fn run(&mut self, b: &[u8], limit: usize) -> usize {
        let Some(weighted) = self.weighted else {
            return 0;
        };
        let (mut p, mut lines, mut max_v) = (0, 0, self.max_v);
        while p < limit {
            let Some(((s, d, w), len)) = window_line(&b[p..]) else {
                break;
            };
            match w {
                Some(w) if weighted => self.weights.push(w),
                None if !weighted => {}
                _ => break,
            }
            self.edges.push((s, d));
            max_v = max_v.max(s).max(d);
            lines += 1;
            p += len;
        }
        self.lines += lines;
        self.max_v = max_v;
        p
    }

    fn scan(&mut self, bytes: &[u8], eof: bool, limit: usize) -> Option<usize> {
        if self.presize > 0 {
            self.presize(&bytes[..bytes.len().min(limit).min(BLOCK_BYTES)]);
        }
        scan_lines(self, bytes, eof, limit)
    }
}

impl TextChunk {
    /// A chunk that will be given `bytes` of input.
    fn of(bytes: u64) -> Self {
        TextChunk {
            presize: bytes,
            ..TextChunk::default()
        }
    }

    /// Sizes the edge vector once, before the first edge, for the chunk's
    /// bytes at the line density of `sample`, its first block: the lines
    /// per byte there, scaled, plus an eighth and a little more, but never
    /// more than the four bytes of `0 0\n` per edge allow. The block is
    /// advised onto huge pages ([`reserved`]). Lines longer than the
    /// sample's cost only address space, given back after the merge; a
    /// part much denser than the sample grows the vector past it.
    fn presize(&mut self, sample: &[u8]) {
        let bytes = u128::from(std::mem::take(&mut self.presize));
        let lines = sample.iter().filter(|&&c| c == b'\n').count() as u128;
        let guess = bytes * lines / sample.len().max(1) as u128;
        let edges = (guess + guess / 8 + 64).min(bytes / 4 + 1);
        self.edges = reserved(usize::try_from(edges).unwrap_or(usize::MAX));
    }

    fn fail(&mut self, line: usize, kind: TextErrKind) {
        self.err = Some((line, kind));
    }

    /// The token path: `src dst [weight]` per line, `#`-comments and blank
    /// lines skipped, zero allocations per line.
    fn token_line(&mut self, line: usize, raw: &[u8]) {
        let t = trim_ascii(raw);
        if t.is_empty() || t[0] == b'#' {
            return;
        }
        let mut tp = 0usize;
        let mut field = |what: &'static str| -> Result<u64, TextErrKind> {
            let tok = next_token(t, &mut tp).ok_or(TextErrKind::Missing(what))?;
            let id = token_str(tok).parse::<u64>();
            id.map_err(|e| TextErrKind::Bad(what, e.to_string()))
        };
        let (s, d) = match field("source").and_then(|s| field("destination").map(|d| (s, d))) {
            Ok(sd) => sd,
            Err(kind) => return self.fail(line, kind),
        };
        let (Ok(s32), Ok(d32)) = (VertexId::try_from(s), VertexId::try_from(d)) else {
            return self.fail(line, TextErrKind::OutOfRange(s.max(d)));
        };
        let weight = match next_token(t, &mut tp) {
            Some(tok) => match token_str(tok).parse::<f64>() {
                Ok(w) => Some(w),
                Err(e) => return self.fail(line, TextErrKind::BadWeight(e.to_string())),
            },
            None => None,
        };
        self.edge(line, s32, d32, weight);
    }

    /// Appends one edge. Mode consistency is enforced *within* the chunk;
    /// consistency against earlier chunks is the merge step's job.
    fn edge(&mut self, line: usize, s: VertexId, d: VertexId, weight: Option<f64>) {
        match (self.weighted, weight) {
            (Some(false), Some(_)) => return self.fail(line, TextErrKind::WeightAfterUnweighted),
            (Some(true), None) => return self.fail(line, TextErrKind::MissingWeight),
            (None, _) => {
                self.weighted = Some(weight.is_some());
                self.first_edge_line = line;
                if weight.is_some() {
                    self.weights = reserved(self.edges.capacity());
                }
            }
            _ => {}
        }
        if let Some(w) = weight {
            self.weights.push(w);
        }
        self.max_v = self.max_v.max(s).max(d);
        self.edges.push((s, d));
    }
}

/// Parses one whole newline-delimited byte range, sized for `presize`
/// bytes of input (the whole buffer for the range the merge grows).
fn parse_text_chunk(bytes: &[u8], presize: usize) -> TextChunk {
    let mut out = TextChunk::of(presize as u64);
    out.scan(bytes, true, usize::MAX);
    out
}

/// Concatenates chunk results in order, resolving cross-chunk weighted/
/// unweighted conflicts and converting chunk-relative error lines to
/// absolute ones. With a single chunk this reduces exactly to the
/// sequential semantics; with many chunks the earliest problem (by
/// absolute line) still wins, so the reported error is independent of the
/// chunk count.
///
/// The first chunk with edges donates its buffers, which the parse sized
/// for the whole input ([`TextChunk::presize`]) and which grow only if that
/// fell short; the later chunks are copied into them by `pool`'s workers,
/// an equal share each (on the calling thread without a pool). The parse
/// bounded every endpoint by `max_v`, so the list is built without a
/// second range check.
fn merge_text_chunks(
    mut chunks: Vec<TextChunk>,
    pool: Option<&ThreadPool>,
) -> Result<EdgeList, GraphError> {
    // The weighted-mode of the first chunk with edges.
    let mut mode: Option<bool> = None;
    let mut max_v = 0;
    let mut line_base = 0usize;
    for chunk in &mut chunks {
        // A chunk whose first edge disagrees with the established global
        // mode fails at that first edge — exactly where the sequential
        // scan would have tripped.
        let conflict = match (chunk.weighted, mode) {
            (Some(w), Some(m)) if w != m => Some((
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
        let first_problem = match (conflict, chunk.err.take()) {
            (Some((cl, ck)), Some((el, ek))) => Some(if cl <= el { (cl, ck) } else { (el, ek) }),
            (p @ Some(_), None) => p,
            (None, p @ Some(_)) => p,
            (None, None) => None,
        };
        if let Some((line, kind)) = first_problem {
            return Err(kind.into_error(line_base + line));
        }
        mode = mode.or(chunk.weighted);
        max_v = max_v.max(chunk.max_v);
        line_base += chunk.lines;
    }
    let mut with_edges = chunks.into_iter().filter(|c| !c.edges.is_empty());
    let Some(first) = with_edges.next() else {
        return Ok(EdgeList::from_parsed(0, Vec::new(), None));
    };
    let later: Vec<TextChunk> = with_edges.collect();
    let edges: Vec<_> = later.iter().map(|c| &c.edges[..]).collect();
    let edges = append_on(first.edges, &edges, pool);
    let weights = (mode == Some(true)).then(|| {
        let weights: Vec<_> = later.iter().map(|c| &c.weights[..]).collect();
        append_on(first.weights, &weights, pool)
    });
    Ok(EdgeList::from_parsed(max_v as usize + 1, edges, weights))
}

/// `first` with `later` appended, in order, and its slack given back. The
/// copies go into capacity nobody has written ([`WorkerFilled`]), one equal
/// share of `later` per worker of `pool`.
fn append_on<T: Copy + Send + Sync>(
    first: Vec<T>,
    later: &[&[T]],
    pool: Option<&ThreadPool>,
) -> Vec<T> {
    let extra: usize = later.iter().map(|p| p.len()).sum();
    // Nothing to copy, nothing to dispatch.
    let pool = pool.filter(|_| extra > 0);
    let threads = pool.map_or(1, ThreadPool::num_threads);
    let share = |i: usize| extra * i / threads;
    let total = first.len() + extra;
    let mut out = WorkerFilled::extending(first, total);
    let writers = out.writers((0..threads).map(|i| share(i + 1) - share(i)));
    let fill = |(i, mut w): (usize, RangeWriter<'_, T>)| {
        let (lo, hi) = (share(i), share(i + 1));
        let mut at = 0;
        for piece in later {
            let (a, b) = (lo.max(at), hi.min(at + piece.len()));
            if a < b {
                w.extend(piece[a - at..b - at].iter().copied());
            }
            at += piece.len();
        }
    };
    run_shares(pool, writers.into_iter().enumerate().collect(), fill);
    let mut joined = out.into_vec();
    // The donated buffer was sized by an estimate; give the slack back.
    joined.shrink_to_fit();
    joined
}

/// Parses a text edge list from a byte buffer: one `src dst [weight]` per
/// line, `#`-prefixed comment lines ignored. The vertex set is sized to the
/// maximum endpoint.
///
/// With a pool, the buffer is split on newline boundaries into one byte
/// range per pool thread, each range is parsed into thread-local vectors,
/// and the results are concatenated in range order — so the resulting list
/// (and any reported error) is identical to the parse on the calling
/// thread.
pub fn parse_text_edgelist(
    bytes: &[u8],
    pool: Option<&ThreadPool>,
) -> Result<EdgeList, GraphError> {
    let parse = |r: std::ops::Range<usize>| {
        let presize = if r.start == 0 { bytes.len() } else { r.len() };
        parse_text_chunk(&bytes[r], presize)
    };
    let chunks = match pool {
        Some(pool) => {
            let ranges = newline_chunk_ranges(bytes, pool.num_threads());
            pool.run_tasks(ranges, |_, r| parse(r))
        }
        None => vec![parse(0..bytes.len())],
    };
    merge_text_chunks(chunks, pool)
}

/// [`parse_text_edgelist`] on `pool`.
pub fn parse_text_edgelist_parallel(
    bytes: &[u8],
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    parse_text_edgelist(bytes, Some(pool))
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

/// Parses a text edge list from any [`Read`], streamed to end of input in
/// blocks (the input is never held whole; see [`parse_text_edgelist`] for
/// the format). Transient I/O errors are retried per `opts.retry`, and the
/// input is refused once more than `opts.max_bytes` of it has been read.
/// Returns the retry counters too.
pub fn read_text_edgelist<R: Read>(
    reader: R,
    opts: &LoadOptions,
) -> Result<(EdgeList, RetryStats), GraphError> {
    read_text_blocks(reader, opts, BLOCK_BYTES)
}

fn read_text_blocks<R: Read>(
    reader: R,
    opts: &LoadOptions,
    block: usize,
) -> Result<(EdgeList, RetryStats), GraphError> {
    let mut blocks = Blocks::new(reader, 0, opts, block);
    let mut chunk = TextChunk::default();
    blocks.stream(false, u64::MAX, &mut chunk)?;
    Ok((merge_text_chunks(vec![chunk], None)?, blocks.stats))
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

/// Loads a text edge list from a file path. The on-disk file size is
/// checked against `opts.max_bytes` before anything is read, the file is
/// streamed in blocks (each read retried per `opts.retry`), and the bytes
/// read stay within the budget too. With a pool, each worker streams and
/// parses its own share of the file; without one, the calling thread
/// streams all of it. The list is the same either way.
pub fn load_text<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
    pool: Option<&ThreadPool>,
) -> Result<EdgeList, GraphError> {
    load_text_streamed(path.as_ref(), opts, pool, BLOCK_BYTES)
}

/// [`load_text`] on `pool` with default [`LoadOptions`].
pub fn load_text_parallel<P: AsRef<Path>>(
    path: P,
    pool: &ThreadPool,
) -> Result<EdgeList, GraphError> {
    load_text(path, &LoadOptions::default(), Some(pool))
}

/// [`load_text`] at a given block size: one share per pool worker, or one
/// stream.
fn load_text_streamed(
    path: &Path,
    opts: &LoadOptions,
    pool: Option<&ThreadPool>,
    block: usize,
) -> Result<EdgeList, GraphError> {
    let file = open_for_load(path)?;
    let len = budgeted_len(&file, opts)?;
    let head = Blocks::new(&file, 0, opts, block);
    merge_text_chunks(stream_file(head, len, pool, TextChunk::of)?, pool)
}

/// Opens a graph file for one of the path loaders. Every one of them is
/// about to build an edge list and its structures, so this is where the
/// process's large-block allocator policy is pinned (see
/// [`grazelle_sched::alloc`]).
fn open_for_load<P: AsRef<Path>>(path: P) -> std::io::Result<std::fs::File> {
    grazelle_sched::alloc::pin_large_block_policy();
    std::fs::File::open(path)
}

// ---------------------------------------------------------------------------
// Matrix Market format
// ---------------------------------------------------------------------------

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
/// check. The input is streamed in blocks, and refused once more than
/// `opts.max_bytes` of it has been read.
pub fn read_matrix_market<R: Read>(reader: R, opts: &LoadOptions) -> Result<EdgeList, GraphError> {
    let mut blocks = Blocks::new(reader, 0, opts, BLOCK_BYTES);
    let h = read_mm_header(&mut blocks, opts)?;
    let mut chunk = MmChunk::new(h, mm_reserve(&h, 1));
    blocks.stream(false, u64::MAX, &mut chunk)?;
    mm_merge(&h, vec![chunk])
}

/// Parsed header + size line of a Matrix Market file.
#[derive(Clone, Copy)]
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
struct MmChunk {
    h: MmHeader,
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
        // `pos` is one past the end when the size line has no newline.
        body_start: pos.min(bytes.len()),
    })
}

/// Reads blocks until the header line and the size line are in whole (or
/// the input ends), parses them, and leaves `blocks` at the first body byte.
fn read_mm_header<R: Read>(
    blocks: &mut Blocks<R>,
    opts: &LoadOptions,
) -> Result<MmHeader, GraphError> {
    loop {
        blocks.fill()?;
        let data = blocks.data();
        let mut end = 0;
        let lines = data.split_inclusive(|&c| c == b'\n');
        let whole = lines
            .take_while(|l| l.ends_with(b"\n"))
            .enumerate()
            .any(|(i, l)| {
                end += l.len();
                let t = trim_ascii(l);
                i > 0 && !t.is_empty() && t[0] != b'%'
            });
        if whole || blocks.eof {
            let h = parse_mm_header(if whole { &data[..end] } else { data }, opts)?;
            blocks.start += h.body_start;
            return Ok(h);
        }
    }
}

/// Edges to reserve per chunk when `k` chunks share the body: the declared
/// count, clamped so a hostile header reserves nothing large.
fn mm_reserve(h: &MmHeader, k: usize) -> usize {
    let edge_slots = if h.symmetric {
        h.nnz.saturating_mul(2)
    } else {
        h.nnz
    };
    (edge_slots as usize / k.max(1)).min(PREALLOC_CAP)
}

impl Scan for MmChunk {
    /// Stops at the first error, or as soon as this chunk *alone* exceeds
    /// the declared entry count (the sequential parser's eager-surplus
    /// guard, which keeps a hostile oversized body from growing the vectors
    /// unboundedly).
    fn line(&mut self, fields: Option<Fields>, raw: &[u8]) -> bool {
        if let Err(e) = self.entry(fields, raw) {
            self.err = Some(e);
        }
        self.err.is_none()
    }
}

impl MmChunk {
    fn new(h: MmHeader, reserve: usize) -> Self {
        MmChunk {
            h,
            edges: Vec::with_capacity(reserve),
            weights: Vec::with_capacity(if h.weighted { reserve } else { 0 }),
            seen: 0,
            err: None,
        }
    }

    /// One entry line: the fast path's fields, or the token path's.
    fn entry(&mut self, fields: Option<Fields>, raw: &[u8]) -> Result<(), GraphError> {
        // A weighted body's line without a value is the token path's error.
        let fields = fields.filter(|f| !self.h.weighted || f.2.is_some());
        let t = trim_ascii(raw);
        let mut tp = 0usize;
        let mut field = |what: &'static str| -> Result<u64, GraphError> {
            let tok =
                next_token(t, &mut tp).ok_or_else(|| GraphError::Io(format!("missing {what}")))?;
            let v = token_str(tok).parse::<u64>();
            v.map_err(|e| GraphError::Io(format!("bad {what}: {e}")))
        };
        let (r, c) = match fields {
            Some((r, c, _)) => (u64::from(r), u64::from(c)),
            None if t.is_empty() || t[0] == b'%' => return Ok(()),
            None => (field("row")?, field("col")?),
        };
        if r == 0 || c == 0 || r > self.h.rows || c > self.h.cols {
            return Err(GraphError::Io(format!("entry ({r},{c}) out of bounds")));
        }
        let (s, d) = ((r - 1) as VertexId, (c - 1) as VertexId);
        let w = match fields {
            _ if !self.h.weighted => None,
            Some((_, _, w)) => w,
            None => {
                let missing = || GraphError::Io("missing value".into());
                let tok = next_token(t, &mut tp).ok_or_else(missing)?;
                let w = token_str(tok).parse::<f64>();
                Some(w.map_err(|e| GraphError::Io(format!("bad value: {e}")))?)
            }
        };
        let mirror = self.h.symmetric && s != d;
        if let Some(w) = w {
            self.weights.push(w);
            if mirror {
                self.weights.push(w);
            }
        }
        self.edges.push((s, d));
        if mirror {
            self.edges.push((d, s));
        }
        self.seen += 1;
        if self.seen > self.h.nnz {
            return Err(GraphError::Io(format!(
                "more than the declared {} entries",
                self.h.nnz
            )));
        }
        Ok(())
    }
}

/// Concatenates MM chunks in order; the first failing chunk's error wins,
/// then the declared entry count must match exactly.
fn mm_merge(h: &MmHeader, chunks: Vec<MmChunk>) -> Result<EdgeList, GraphError> {
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

/// Loads a Matrix Market file from a path (see [`read_matrix_market`]),
/// under the same budget and retries as [`load_text`]. The header is read
/// on the calling thread; then, with a pool, each worker streams and parses
/// its own share of the entry body.
pub fn load_matrix_market<P: AsRef<Path>>(
    path: P,
    opts: &LoadOptions,
    pool: Option<&ThreadPool>,
) -> Result<EdgeList, GraphError> {
    load_mm_streamed(path.as_ref(), opts, pool, BLOCK_BYTES)
}

/// [`load_matrix_market`] at a given block size: the header on the calling
/// thread, then the body as [`load_text_streamed`] streams a text file.
fn load_mm_streamed(
    path: &Path,
    opts: &LoadOptions,
    pool: Option<&ThreadPool>,
    block: usize,
) -> Result<EdgeList, GraphError> {
    let file = open_for_load(path)?;
    let len = budgeted_len(&file, opts)?;
    let mut head = Blocks::new(&file, 0, opts, block);
    let h = read_mm_header(&mut head, opts)?;
    let reserve = mm_reserve(&h, pool.map_or(1, ThreadPool::num_threads));
    mm_merge(
        &h,
        stream_file(head, len, pool, |_| MmChunk::new(h, reserve))?,
    )
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

/// Little-endian cursor over a byte slice (replaces the `bytes` crate's
/// `Buf`, which is unavailable in the offline build environment). Bounds
/// are checked once in [`decode_binary`] before any `get_*` call, so
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

/// Serializes an edge list to the (version-1, checksummed) binary format:
///
/// `MAGIC | flags:u8 | n:u64 | m:u64 | (src:u32 dst:u32)*m | (weight:f64)*m? | crc32c:u32`
///
/// The flags byte packs the format version in its high nibble and
/// `FLAG_WEIGHTED` in bit 0. The trailer is the CRC32C of every preceding
/// byte, little-endian.
pub fn encode_binary(el: &EdgeList) -> Vec<u8> {
    let m = el.num_edges();
    let weighted = el.is_weighted();
    let cap = HEADER_LEN + m * 8 + if weighted { m * 8 } else { 0 } + TRAILER_LEN;
    let mut buf = Vec::with_capacity(cap);
    buf.extend_from_slice(&MAGIC);
    buf.push((FORMAT_VERSION << 4) | weighted as u8);
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
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Deserializes the binary format produced by [`encode_binary`].
///
/// Validation order: magic → version → CRC32C over the whole file minus the
/// trailer → byte budget on the header-declared `n`/`m` → exact payload
/// length → decode. The checksum runs before the size fields are trusted,
/// so any single corrupted byte surfaces as a typed error before a single
/// byte of payload is allocated or parsed. The weighted branch decodes
/// pairs and weights in one streaming pass (two cursors over the same
/// buffer, no intermediate `Vec`s).
fn decode_binary(data: &[u8], opts: &LoadOptions) -> Result<EdgeList, GraphError> {
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
    if version != FORMAT_VERSION {
        return Err(GraphError::UnsupportedVersion(version));
    }
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(GraphError::Io("binary graph truncated (trailer)".into()));
    }
    let stored = u32::from_le_bytes(data[data.len() - TRAILER_LEN..].try_into().unwrap());
    let computed = crc32c(&data[..data.len() - TRAILER_LEN]);
    if stored != computed {
        return Err(GraphError::ChecksumMismatch { stored, computed });
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
    // The file must match the declared payload exactly; any surplus would
    // be unchecked bytes a writer never produced.
    let need = payload as usize;
    let avail = data.len() - HEADER_LEN - TRAILER_LEN;
    if avail != need {
        return Err(GraphError::Io(format!(
            "binary graph payload length mismatch: header declares {need} bytes, file carries {avail}"
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
/// transient I/O errors per `opts.retry` and refusing the input once more
/// than the byte budget (plus header and trailer) of it has been read.
/// Returns the decoded list plus the retry counters (clean runs report
/// zero). A file already in memory reads as `read_binary(&bytes[..], opts)`.
pub fn read_binary<R: Read>(
    reader: R,
    opts: &LoadOptions,
) -> Result<(EdgeList, RetryStats), GraphError> {
    read_binary_sized(reader, opts, 0)
}

/// [`read_binary`] into a buffer pre-sized for `len_hint` bytes.
fn read_binary_sized<R: Read>(
    reader: R,
    opts: &LoadOptions,
    len_hint: u64,
) -> Result<(EdgeList, RetryStats), GraphError> {
    let limit = binary_limit(opts);
    let (bytes, stats) = read_retrying_within(reader, opts.retry, len_hint, limit)?;
    if bytes.len() as u64 > limit {
        return Err(GraphError::BudgetExceeded {
            required: bytes.len() as u64,
            budget: opts.max_bytes,
        });
    }
    Ok((decode_binary(&bytes, opts)?, stats))
}

/// The most bytes a binary input within `opts`' budget can take: the
/// payload budget plus header and trailer.
fn binary_limit(opts: &LoadOptions) -> u64 {
    opts.max_bytes
        .saturating_add((HEADER_LEN + TRAILER_LEN) as u64)
}

/// Saves an edge list to a binary file (see [`encode_binary`]).
pub fn save_binary<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), GraphError> {
    std::fs::write(path, encode_binary(el))?;
    Ok(())
}

/// Loads an edge list from a binary file (see [`read_binary`]). The on-disk
/// file size is checked against the byte budget before the file is read.
pub fn load_binary<P: AsRef<Path>>(path: P, opts: &LoadOptions) -> Result<EdgeList, GraphError> {
    let f = open_for_load(path)?;
    let len = f.metadata().map_or(0, |md| md.len());
    if len > binary_limit(opts) {
        return Err(GraphError::BudgetExceeded {
            required: len,
            budget: opts.max_bytes,
        });
    }
    read_binary_sized(f, opts, len).map(|(el, _)| el)
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
        let back = read_text_edgelist(&buf[..], &LoadOptions::default())
            .unwrap()
            .0;
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
        let back = read_text_edgelist(&buf[..], &LoadOptions::default())
            .unwrap()
            .0;
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.weights().unwrap(), el.weights().unwrap());
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n  # indented comment\n1 2\n";
        let el = read_text_edgelist(text.as_bytes(), &LoadOptions::default())
            .unwrap()
            .0;
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text_edgelist("0".as_bytes(), &LoadOptions::default()).is_err());
        assert!(read_text_edgelist("a b".as_bytes(), &LoadOptions::default()).is_err());
        assert!(read_text_edgelist("0 1 x".as_bytes(), &LoadOptions::default()).is_err());
        // Mixing weighted and unweighted lines fails either way around.
        assert!(read_text_edgelist("0 1\n1 2 3.5".as_bytes(), &LoadOptions::default()).is_err());
        assert!(read_text_edgelist("0 1 3.5\n1 2".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn vertex_tokens_parse_like_str_parse() {
        // The fast path folds ids itself; where it takes a token, it must
        // read what `str::parse` reads, and it must leave the rest alone.
        for tok in [
            "0",
            "007",
            "+5",
            "-1",
            "1e3",
            "12x",
            "1234567",              // seven digits: one word
            "12345678",             // eight: folded a byte at a time
            "4294967295",           // u32::MAX
            "4294967296",           // past it: the token path's range error
            "9999999999999999999",  // 19 digits: the longest folded
            "18446744073709551615", // u64::MAX, 20 digits
            "18446744073709551616", // overflow
            "00000000000000000000001",
        ] {
            let line = format!("{tok} {tok}\n");
            let want = tok
                .parse::<u64>()
                .ok()
                .and_then(|v| VertexId::try_from(v).ok());
            let got = fast_line(line.as_bytes()).map(|((s, d, _), _)| {
                assert_eq!(s, d);
                s
            });
            match (tok.starts_with('+'), tok.len() > 19) {
                (false, false) => assert_eq!(got, want, "{tok}"),
                _ => assert_eq!(got, None, "{tok}"),
            }
        }
    }

    #[test]
    fn chunks_merge_in_order_around_an_empty_one() {
        // Parsed chunks: a leading comment-only one, then edges around an
        // empty one; the first with edges donates its buffer and the rest
        // are copied in shares, on the calling thread or by 2 or 3 workers.
        let texts = [
            "# c\n\n",
            "0 1 0.5\n1 2 1.5\n2 3 2.5\n",
            "",
            "3 4 3.5\n4 0 4.5\n",
            "0 4 5.5\n",
        ];
        let pools = [2, 3].map(ThreadPool::single_group);
        for pool in [None, Some(&pools[0]), Some(&pools[1])] {
            let chunks = texts.map(|t| parse_text_chunk(t.as_bytes(), t.len()));
            let el = merge_text_chunks(chunks.into(), pool).unwrap();
            assert_eq!(
                el.edges(),
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 4)]
            );
            assert_eq!(el.weights().unwrap(), &[0.5, 1.5, 2.5, 3.5, 4.5, 5.5]);
            assert_eq!(el.num_vertices(), 5);
        }
    }

    #[test]
    fn binary_roundtrip_unweighted() {
        let el = sample();
        let bytes = encode_binary(&el);
        let back = decode_binary(&bytes, &LoadOptions::default()).unwrap();
        assert_eq!(back.edges(), el.edges());
        assert_eq!(back.num_vertices(), el.num_vertices());
        assert!(!back.is_weighted());
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let el = weighted_sample();
        let back = decode_binary(&encode_binary(&el), &LoadOptions::default()).unwrap();
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
            decode_binary(&corrupt, &LoadOptions::default()),
            Err(GraphError::BadMagic { .. })
        ));
        assert!(decode_binary(&bytes[..bytes.len() - 4], &LoadOptions::default()).is_err());
        assert!(decode_binary(&bytes[..10], &LoadOptions::default()).is_err());
    }

    #[test]
    fn binary_truncated_at_every_offset_errors_cleanly() {
        // Header, payload, and trailer truncation — every prefix of a valid
        // file must produce a typed error, never a panic and never success.
        for el in [sample(), weighted_sample()] {
            let bytes = encode_binary(&el);
            for cut in 0..bytes.len() {
                let res = decode_binary(&bytes[..cut], &LoadOptions::default());
                assert!(res.is_err(), "prefix of {cut}/{} decoded", bytes.len());
            }
            assert!(decode_binary(&bytes, &LoadOptions::default()).is_ok());
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
                        decode_binary(&corrupt, &LoadOptions::default()).is_err(),
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
        assert!(decode_binary(&bytes, &LoadOptions::default()).is_err());
    }

    #[test]
    fn unknown_version_nibble_is_rejected() {
        // A future version, and a version-0 file: no version nibble, no
        // checksum trailer.
        let mut bytes = encode_binary(&sample());
        bytes[8] = 2 << 4;
        let mut v0 = encode_binary(&sample());
        v0.truncate(v0.len() - TRAILER_LEN);
        v0[8] = 0;
        for (bytes, version) in [(bytes, 2), (v0, 0)] {
            assert!(matches!(
                decode_binary(&bytes, &LoadOptions::default()),
                Err(GraphError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn hostile_header_hits_budget_before_allocation() {
        // A 29-byte file (valid CRC!) declaring 2^60 edges must be refused
        // by the budget check, not by an allocation attempt.
        let crafted = craft_v1(4, 1 << 60, false, &[]);
        match decode_binary(&crafted, &LoadOptions::default()) {
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
            decode_binary(&crafted, &LoadOptions::default()),
            Err(GraphError::BudgetExceeded { .. })
        ));
        // Edge-count × entry-size overflow is a typed error, not a wrap.
        let crafted = craft_v1(4, u64::MAX / 2, true, &[]);
        assert!(decode_binary(&crafted, &LoadOptions::default()).is_err());
    }

    #[test]
    fn payload_length_must_match_header_exactly() {
        // Declares 2 edges but carries 1: length mismatch (CRC is valid).
        let payload = [0u8; 8];
        let crafted = craft_v1(4, 2, false, &payload);
        assert!(matches!(
            decode_binary(&crafted, &LoadOptions::default()),
            Err(GraphError::Io(_))
        ));
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
        let g = load_binary(&path, &LoadOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_binary_enforces_file_size_budget() {
        let dir = std::env::temp_dir();
        let path = dir.join("grazelle_io_budget_test.bin");
        save_binary(&sample(), &path).unwrap();
        let opts = LoadOptions::default().with_max_bytes(8);
        assert!(matches!(
            load_binary(&path, &opts),
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
        let el = read_matrix_market(mtx.as_bytes(), &LoadOptions::default()).unwrap();
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
        let el = read_matrix_market(mtx.as_bytes(), &LoadOptions::default()).unwrap();
        // Off-diagonal entries mirrored; diagonal kept once.
        let mut edges = el.edges().to_vec();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 3), (2, 2), (3, 1)]);
        assert!(!el.is_weighted());
    }

    #[test]
    fn matrix_market_rejects_malformed() {
        // Wrong object/format.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1 1\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        // Unsupported field type.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        // Out-of-bounds entry.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        // Entry-count mismatch.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        // 1-based index zero.
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        // Empty file.
        assert!(read_matrix_market("".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn matrix_market_hostile_header_is_refused_before_allocation() {
        // Three lines, declared sizes in the exabytes: the budget check
        // must reject this without reserving anything.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   1000000000 1000000000 999999999999999999\n\
                   1 1\n";
        assert!(matches!(
            read_matrix_market(mtx.as_bytes(), &LoadOptions::default()),
            Err(GraphError::BudgetExceeded { .. })
        ));
        // Dims beyond the u32 vertex space are refused outright.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   99999999999 1 1\n\
                   1 1\n";
        assert!(matches!(
            read_matrix_market(mtx.as_bytes(), &LoadOptions::default()),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        // Declared-size overflow saturates into a budget error, not a wrap.
        let mtx = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n4 4 {}\n1 1 1.0\n",
            u64::MAX
        );
        assert!(matches!(
            read_matrix_market(mtx.as_bytes(), &LoadOptions::default()),
            Err(GraphError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn matrix_market_rejects_surplus_entries_eagerly() {
        // Declares 1 entry, supplies 3: refused at entry 2, not after
        // buffering everything.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 1\n1 1\n1 2\n2 1\n";
        assert!(read_matrix_market(mtx.as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn matrix_market_size_line_may_end_the_file() {
        // No newline after the size line: an empty body, not a panic.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n2 2 0";
        let el = read_matrix_market(mtx.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!((el.num_vertices(), el.num_edges()), (2, 0));
        let path = std::env::temp_dir().join(format!("grazelle_io_mm_size_{}", std::process::id()));
        std::fs::write(&path, mtx).unwrap();
        let pool = ThreadPool::single_group(2);
        let el = load_mm_streamed(&path, &LoadOptions::default(), Some(&pool), BLOCK_BYTES);
        std::fs::remove_file(&path).ok();
        assert_eq!(el.unwrap().num_edges(), 0);
    }

    #[test]
    fn matrix_market_rectangular_uses_max_dimension() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n2 5 1\n1 5\n";
        let el = read_matrix_market(mtx.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.edges(), &[(0, 4)]);
    }

    #[test]
    fn empty_text_gives_empty_list() {
        let el = read_text_edgelist("".as_bytes(), &LoadOptions::default())
            .unwrap()
            .0;
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn budget_bounds_the_bytes_read() {
        let budget = 1000;
        let opts = LoadOptions::default().with_max_bytes(budget);
        let over = |r: Result<_, GraphError>| {
            matches!(r, Err(GraphError::BudgetExceeded { required, budget: b })
                if b == budget && required > budget && required <= budget + 64)
        };
        // A reader with no length to check up front: the budget must stop
        // the read itself, not the parse of everything it returned.
        let zeros = || std::io::repeat(0).take(budget + 64);
        assert!(over(read_binary(zeros(), &opts).map(|_| ())));
        assert!(over(read_text_edgelist(zeros(), &opts).map(|_| ())));
        let blank_lines = std::io::repeat(b'\n').take(budget + 64);
        assert!(over(read_text_edgelist(blank_lines, &opts).map(|_| ())));
        let header = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n";
        let mtx = header.as_bytes().chain(std::io::repeat(b'%').take(budget));
        assert!(over(read_matrix_market(mtx, &opts).map(|_| ())));
        // Within the budget, the same inputs read to the end.
        let fits = std::io::repeat(b'\n').take(budget);
        let (el, _) = read_text_edgelist(fits, &opts).unwrap();
        assert_eq!(el.num_edges(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn files_without_a_length_stream_to_the_end() {
        // `/proc` files report length 0; the loaders read them anyway, on
        // one worker. (`stat` starts `pid (comm) …`: a bad destination.)
        let pool = ThreadPool::single_group(2);
        for err in [
            load_text("/proc/self/stat", &LoadOptions::default(), None).unwrap_err(),
            load_text_parallel("/proc/self/stat", &pool).unwrap_err(),
        ] {
            assert!(err.to_string().contains("line 1: bad destination"), "{err}");
        }
    }

    #[test]
    fn fast_line_reads_the_common_forms() {
        for (line, want) in [
            (&b"12 34\n"[..], ((12, 34, None), 6)),
            (b"12\t34 \r\n", ((12, 34, None), 8)),
            (b"0  7 2.5625\n", ((0, 7, Some(2.5625)), 12)),
            (b"1 2 -0.5 \t\r\n", ((1, 2, Some(-0.5)), 12)),
            (b"4294967295 3 1.\n", ((u32::MAX, 3, Some(1.0)), 16)),
        ] {
            assert_eq!(fast_line(line), Some(want), "{:?}", token_str(line));
        }
        // Everything else is the token path's.
        for line in [
            &b"12 34"[..], // no newline yet
            b" 12 34\n",
            b"12  34 5 6\n",
            b"12 34 1e3\n",
            b"12 34 inf\n",
            b"4294967296 1\n",
            b"12\x0c34\n",
            b"# 1 2\n",
            b"\n",
        ] {
            assert_eq!(fast_line(line), None, "{:?}", token_str(line));
        }
    }

    /// The window reads a line exactly when both ids have one to seven
    /// digits, one blank parts them, the weight (if any) follows one blank
    /// and `b` holds the window and the line's end; and then it reads what
    /// the general reading does. Every id length, on every ending, with the
    /// next line's bytes from none to a whole window behind it.
    #[test]
    fn the_window_reads_the_common_lines_as_the_general_reading_does() {
        let ids = (1..=10u32).map(|n| "1234567890"[..n as usize].to_string());
        let ids: Vec<String> = ids.chain(["0".into(), "4294967295".into()]).collect();
        let ends = [
            "\n",
            "\r\n",
            " \n",
            "\r",
            " 2.5\n",
            "\t-0.5\r\n",
            "  1\n",
            " x\n",
        ];
        let mut windowed = 0;
        for s in &ids {
            for d in &ids {
                for sep in [" ", "\t", "  ", "x", "\x0c"] {
                    for end in ends {
                        for pad in 0..=16 {
                            let line = format!("{s}{sep}{d}{end}");
                            let b = format!("{line}{}", &"7 8\n9 10\n11 12\n13"[..pad]);
                            let b = b.as_bytes();
                            let general = general_line(b);
                            assert_eq!(fast_line(b), general, "{line:?} + {pad}");
                            let common = s.len() <= 7 && d.len() <= 7 && [" ", "\t"].contains(&sep);
                            let ending = ["\n", "\r\n", " 2.5\n", "\t-0.5\r\n"].contains(&end);
                            let read = window_line(b);
                            let want = common && ending && b.len() >= 16;
                            assert_eq!(read.is_some(), want, "{line:?} + {pad}");
                            if want {
                                assert_eq!(read, general, "{line:?} + {pad}");
                                assert_eq!(read.map(|r| r.1), Some(line.len()));
                                windowed += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(windowed > 2000, "the window read {windowed} lines");
        // A window past the end of `b`, or a line's end past the end of
        // `b`, is the general reading's.
        assert_eq!(window_line(b"1 2\n"), None);
        assert_eq!(
            window_line(b"1234567 1234567\n"),
            Some(((1234567, 1234567, None), 16))
        );
        assert_eq!(
            window_line(b"1234567 1234567\r\n"),
            Some(((1234567, 1234567, None), 17))
        );
        assert_eq!(window_line(b"1234567 1234567\r"), None);
        assert_eq!(window_line(b"12345678 1 0 0 0 0\n"), None);
    }

    /// No load keeps a reservation: the list's vectors hold exactly its
    /// edges and weights, on every worker count and entry point, whether
    /// the first block's guess was exact (`0 0` lines, the densest there
    /// are), had nothing to go on (comments only) or was low (weighted
    /// lines after short ones).
    #[test]
    fn loads_leave_no_spare_capacity() {
        let zeros = "0 0\n".repeat(300_000);
        let comments = "# nothing here\n".repeat(20_000);
        let mut weighted = "1 2 0.5\n".repeat(30_000);
        for i in 0..60_000u32 {
            weighted.push_str(&format!("{} {} {}.25\n", i * 7919, i, i % 100));
        }
        let path = std::env::temp_dir().join(format!("grazelle_io_cap_{}", std::process::id()));
        for text in [&zeros, &comments, &weighted] {
            std::fs::write(&path, text).unwrap();
            let want = parse_text_edgelist(text.as_bytes(), None).unwrap();
            for threads in [1, 2, 8] {
                let pool = ThreadPool::single_group(threads);
                let buffer = parse_text_edgelist_parallel(text.as_bytes(), &pool).unwrap();
                let file = load_text_parallel(&path, &pool).unwrap();
                for el in [buffer, file] {
                    assert_eq!(el.edges(), want.edges());
                    assert_eq!(el.weights(), want.weights());
                    let (_, edges, weights) = el.into_parts();
                    assert_eq!(edges.capacity(), edges.len(), "{threads} threads");
                    if let Some(w) = weights {
                        assert_eq!(w.capacity(), w.len(), "{threads} threads");
                    }
                }
            }
            let (_, edges, _) = want.into_parts();
            assert_eq!(edges.capacity(), edges.len());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fast_weights_match_str_parse_bit_for_bit() {
        let taken = |s: &str| {
            let line = format!("{s}\n");
            fast_decimal(line.as_bytes(), 0).filter(|&(_, end)| end == s.len())
        };
        for s in [
            "9007199254740992",
            "0.0000000000000000000001",  // 22 fraction digits, exact
            "0.1234567890123456789012",  // 22 fraction digits, mantissa too big
            "0.00000000000000000000001", // 23 fraction digits
            "-0",
            "+1",
            "1.",
            ".5",
            "-.5",
            "00.5",
            "123456.000001",
        ] {
            if let Some((w, _)) = taken(s) {
                assert_eq!(w.to_bits(), s.parse::<f64>().unwrap().to_bits(), "{s}");
            }
        }
        for s in ["9007199254740992", "-0", "+1", "1.", ".5", "123456.000001"] {
            assert!(taken(s).is_some(), "{s} should take the fast path");
        }
        for s in ["9007199254740993", "1e3", "inf", "NaN", ".", "-", "1.5."] {
            assert!(taken(s).is_none(), "{s} should take the token path");
        }
    }

    #[test]
    fn more_workers_than_bytes() {
        // Shares shorter than a line: most workers take none.
        let pool = ThreadPool::single_group(8);
        let opts = LoadOptions::default();
        let path = std::env::temp_dir().join(format!("grazelle_io_tiny_{}", std::process::id()));
        for text in ["0 1", "0 1\n", "0 1\n2 3", "#\n0 1\n", "\n\n\n"] {
            std::fs::write(&path, text).unwrap();
            let want = parse_text_edgelist(text.as_bytes(), None).unwrap();
            let got = load_text_streamed(&path, &opts, Some(&pool), 64).unwrap();
            assert_eq!(got.edges(), want.edges(), "{text:?}");
            assert_eq!(got.num_vertices(), want.num_vertices(), "{text:?}");
        }
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2",
        )
        .unwrap();
        let got = load_mm_streamed(&path, &opts, Some(&pool), 64).unwrap();
        assert_eq!(got.edges(), &[(0, 1)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_line_longer_than_the_block_is_carried_whole() {
        let long = format!("# {}\n", "x".repeat(1000));
        let text = format!("0 1\n{long}2 3\n{long}4 5");
        for block in [1, 7, 64] {
            let (el, _) =
                read_text_blocks(text.as_bytes(), &LoadOptions::default(), block).unwrap();
            assert_eq!(el.edges(), &[(0, 1), (2, 3), (4, 5)], "block {block}");
        }
    }

    mod streamed {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Weights that sit on the fast path's edges, and some that are
        /// not numbers at all.
        const WEIGHTS: [&str; 20] = [
            "9007199254740992",
            "9007199254740993",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "0.0000000000000000000001",
            "-0",
            "+1",
            "1.",
            ".5",
            "1e3",
            "inf",
            "NaN",
            "-inf",
            "0.30000000000000004",
            "2.5625",
            "1E-3",
            "1.5.",
            "-",
            ".",
            "12x",
        ];

        /// Lines no well-formed file needs: ids at and past the limits,
        /// odd whitespace, extra tokens, junk.
        const ODD: [&str; 18] = [
            "4294967295 1",
            "4294967296 0",
            "9999999999999999999 1",
            "18446744073709551616 2",
            "00000000000000000000001 2",
            "+5 3",
            "-1 2",
            "0\x0c1",
            "\x0c0 1",
            "0 1\x0c",
            "0 1 2.5 extra",
            "a b",
            "0",
            "0 1 x",
            "0 1\t",
            "\x0b0 1",
            "0\x0b1",
            "12x34",
        ];

        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn weight(r: u64) -> String {
            match r % 4 {
                0 => format!("{}", f64::from_bits(mix(r))),
                1 => WEIGHTS[(r >> 8) as usize % WEIGHTS.len()].to_string(),
                2 => format!("{}", ((r >> 8) % 1000) as f64 / 16.0),
                _ => format!("{}", ((r >> 8) % 100_000) as f64 * 1e-3),
            }
        }

        /// An id drawn from `r`: one time in four below 60, so that lines
        /// share ids; otherwise of one to ten digits, each length alike, so
        /// that every run length the window's digit fold takes and the
        /// longer ones it leaves to the general reading come up. Ten-digit
        /// ids reach `u32::MAX` and stop there; `ODD` lines go past it.
        fn id(r: u64) -> u64 {
            let m = mix(r);
            let digits = 1 + (m >> 8) as u32 % 10;
            match (r % 4, digits) {
                (0, _) => m % 60,
                (_, 1) => m % 10,
                (_, 10) if (m >> 40).is_multiple_of(8) => u64::from(u32::MAX),
                (_, 10) => u64::from(u32::MAX) - m % 3_294_967_296,
                _ => 10u64.pow(digits - 1) * (1 + m % 9) + m % 10u64.pow(digits - 1),
            }
        }

        /// One line of a text corpus, drawn from `r`.
        fn text_line(r: u64, weighted: bool) -> String {
            let (a, b) = (id(r >> 8), id(r >> 16));
            let sep = [" ", "\t", "  ", " \t "][(r >> 24) as usize % 4];
            let tail = ["", "", " ", "\t"][(r >> 26) as usize % 4];
            let w = |r| format!("{sep}{}", weight(r));
            match r % 64 {
                0..=49 => {
                    let w = if weighted { w(mix(r)) } else { String::new() };
                    format!("{a}{sep}{b}{w}{tail}")
                }
                50..=52 => format!("# comment {a}"),
                53 => format!("   # indented {b}"),
                54..=56 => ["", "   ", "\t", "\x0c"][(r >> 28) as usize % 4].to_string(),
                57 => format!("# {}", "y".repeat(70 + (r >> 30) as usize % 60)),
                58 if weighted => format!("{a} {b}"),
                58 => format!("{a} {b}{}", w(r)),
                _ => ODD[(r >> 32) as usize % ODD.len()].to_string(),
            }
        }

        /// Lines joined by `\n` or `\r\n`, with or without a last newline.
        fn corpus(lines: &[String], shape: u64) -> Vec<u8> {
            let eol = if shape & 1 == 1 { "\r\n" } else { "\n" };
            let mut text = lines.join(eol);
            if shape & 2 == 2 && !lines.is_empty() {
                text.push_str(eol);
            }
            text.into_bytes()
        }

        type Parsed = Result<(usize, Vec<(u32, u32)>, Option<Vec<u64>>), String>;

        fn parsed(r: Result<EdgeList, GraphError>) -> Parsed {
            let el = r.map_err(|e| e.to_string())?;
            let bits = el
                .weights()
                .map(|w| w.iter().map(|x| x.to_bits()).collect());
            Ok((el.num_vertices(), el.edges().to_vec(), bits))
        }

        /// The text format, read the plain way: `str` lines and tokens.
        fn text_reference(text: &[u8]) -> Parsed {
            let io =
                |n: usize, what: String| GraphError::Io(format!("line {n}: {what}")).to_string();
            let text = std::str::from_utf8(text).expect("the corpus is ASCII");
            let mut lines: Vec<&str> = text.split('\n').collect();
            if lines.last() == Some(&"") {
                lines.pop();
            }
            let (mut edges, mut weights, mut mode) = (Vec::new(), Vec::new(), None);
            for (i, raw) in lines.iter().enumerate() {
                let n = i + 1;
                let line = raw.trim_matches(|c: char| c.is_ascii_whitespace());
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut toks = line
                    .split(|c: char| c.is_ascii_whitespace())
                    .filter(|t| !t.is_empty());
                let mut id = |what: &str| -> Result<u64, String> {
                    let t = toks
                        .next()
                        .ok_or_else(|| io(n, format!("missing {what}")))?;
                    t.parse::<u64>()
                        .map_err(|e| io(n, format!("bad {what}: {e}")))
                };
                let (s, d) = (id("source")?, id("destination")?);
                if s.max(d) > u64::from(u32::MAX) {
                    let vertex = s.max(d);
                    let num_vertices = u64::from(u32::MAX);
                    return Err(GraphError::VertexOutOfRange {
                        vertex,
                        num_vertices,
                    }
                    .to_string());
                }
                let w = match toks.next() {
                    Some(t) => Some(
                        t.parse::<f64>()
                            .map_err(|e| io(n, format!("bad weight: {e}")))?,
                    ),
                    None => None,
                };
                match (mode, w) {
                    (Some(false), Some(_)) => {
                        return Err(io(n, "weight appears after unweighted edges".into()))
                    }
                    (Some(true), None) => {
                        return Err(io(n, "missing weight in weighted edge list".into()))
                    }
                    _ => {}
                }
                mode.get_or_insert(w.is_some());
                edges.push((s as u32, d as u32));
                weights.extend(w.map(f64::to_bits));
            }
            let n = edges
                .iter()
                .map(|&(s, d)| s.max(d) as usize + 1)
                .max()
                .unwrap_or(0);
            Ok((n, edges, (mode == Some(true)).then_some(weights)))
        }

        fn scratch_file(bytes: &[u8]) -> std::path::PathBuf {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let name = format!(
                "grazelle_io_streamed_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            );
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, bytes).unwrap();
            path
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every text loader — buffer parse, streamed `Read`, streamed
            /// file at 1/2/8 workers — at block sizes down to one byte
            /// returns what the plain reading returns: edges, vertex count,
            /// weight bits, or the same error text at the same line.
            #[test]
            fn prop_text_loaders_match_the_plain_reading(
                seeds in proptest::collection::vec(any::<u64>(), 0..40),
                weighted: bool,
                shape in 0u64..4,
            ) {
                let lines: Vec<String> = seeds.iter().map(|&r| text_line(r, weighted)).collect();
                let text = corpus(&lines, shape);
                let want = text_reference(&text);
                let opts = LoadOptions::default();
                prop_assert_eq!(&parsed(parse_text_edgelist(&text, None)), &want);
                let path = scratch_file(&text);
                for block in [1, 7, 64, BLOCK_BYTES] {
                    let streamed = read_text_blocks(&text[..], &opts, block).map(|(el, _)| el);
                    prop_assert_eq!(&parsed(streamed), &want, "read, block {}", block);
                    let file = load_text_streamed(&path, &opts, None, block);
                    prop_assert_eq!(&parsed(file), &want, "file, block {}", block);
                }
                for threads in [1, 2, 8] {
                    let pool = ThreadPool::single_group(threads);
                    let buffer = parse_text_edgelist_parallel(&text, &pool);
                    prop_assert_eq!(&parsed(buffer), &want, "buffer, {} threads", threads);
                    for block in [1, 7, 64, BLOCK_BYTES] {
                        let file = load_text_streamed(&path, &opts, Some(&pool), block);
                        prop_assert_eq!(&parsed(file), &want, "{} threads, block {}", threads, block);
                    }
                }
                std::fs::remove_file(&path).ok();
            }

            /// The public pool loader returns what the one-thread buffer
            /// parse returns — edges, weight bits, vertex count, or the same
            /// error text — on inputs long enough that every worker's share
            /// holds edges and the join copies pieces of several shares. At
            /// most one line, at `at`, may be a problem line.
            #[test]
            fn prop_load_text_parallel_matches_parse_text_edgelist(
                seeds in proptest::collection::vec(any::<u64>(), 0..600),
                weighted: bool,
                problem in proptest::option::of((any::<u64>(), any::<usize>())),
            ) {
                // Edge, comment and blank lines only (kinds 0..=57).
                let mut lines: Vec<String> = seeds
                    .iter()
                    .map(|&r| text_line(r - r % 64 + r % 64 % 58, weighted))
                    .collect();
                if let (Some((r, at)), false) = (problem, lines.is_empty()) {
                    let i = at % lines.len();
                    lines[i] = text_line(r - r % 64 + 58 + r % 6, weighted);
                }
                let text = corpus(&lines, 2);
                let want = parsed(parse_text_edgelist(&text, None));
                let path = scratch_file(&text);
                for threads in [1, 2, 8] {
                    let pool = ThreadPool::single_group(threads);
                    let got = parsed(load_text_parallel(&path, &pool));
                    prop_assert_eq!(&got, &want, "{} threads", threads);
                }
                std::fs::remove_file(&path).ok();
            }

            /// The fast weight path agrees with `str::parse` on every
            /// shortest-form `f64` it takes.
            #[test]
            fn prop_fast_weights_match_str_parse(bits: u64, r: u64) {
                for s in [format!("{}", f64::from_bits(bits)), weight(r)] {
                    let line = format!("{s}\n");
                    if let Some((w, end)) = fast_decimal(line.as_bytes(), 0) {
                        if end == s.len() {
                            prop_assert_eq!(w.to_bits(), s.parse::<f64>().unwrap().to_bits(), "{}", s);
                        }
                    }
                }
            }
        }

        /// One body line of a Matrix Market corpus, drawn from `r`.
        fn mm_line(r: u64, dims: u64, weighted: bool) -> String {
            let (a, b) = (1 + (r >> 8) % dims, 1 + (r >> 16) % dims);
            let w = if weighted {
                format!(" {}", weight(mix(r)))
            } else {
                String::new()
            };
            match r % 32 {
                0..=25 => format!("{a} {b}{w}"),
                26 => format!("% note {a}"),
                27 => String::new(),
                28 => format!("{a}\t{b}{w}  "),
                29 => format!("{} {b}{w}", [0, dims + 1][(r >> 30) as usize % 2]),
                30 => format!("{a} {b} 7 extra"),
                _ => ["x 1", "1", "1 2 3e", "+1 1 1"][(r >> 30) as usize % 4].to_string(),
            }
        }

        /// The Matrix Market body, read the plain way (the header of every
        /// generated corpus is valid).
        fn mm_reference(text: &str) -> Parsed {
            let io = |what: String| GraphError::Io(what).to_string();
            let mut lines = text.lines();
            let header: Vec<String> = lines
                .next()
                .unwrap()
                .split_whitespace()
                .map(str::to_lowercase)
                .collect();
            let weighted = header[3] != "pattern";
            let symmetric = header[4] == "symmetric";
            let size = lines
                .find(|l| !l.trim().is_empty() && !l.trim().starts_with('%'))
                .unwrap();
            let dims: Vec<u64> = size
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
            let (mut edges, mut weights, mut seen) = (Vec::new(), Vec::new(), 0u64);
            for raw in lines {
                let t = raw.trim_matches(|c: char| c.is_ascii_whitespace());
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let mut toks = t.split_ascii_whitespace();
                let mut id = |what: &str| -> Result<u64, String> {
                    let tok = toks.next().ok_or_else(|| io(format!("missing {what}")))?;
                    tok.parse::<u64>()
                        .map_err(|e| io(format!("bad {what}: {e}")))
                };
                let (r, c) = (id("row")?, id("col")?);
                if r == 0 || c == 0 || r > rows || c > cols {
                    return Err(io(format!("entry ({r},{c}) out of bounds")));
                }
                let (s, d) = ((r - 1) as u32, (c - 1) as u32);
                let copies = if symmetric && s != d { 2 } else { 1 };
                if weighted {
                    let tok = toks.next().ok_or_else(|| io("missing value".into()))?;
                    let w = tok
                        .parse::<f64>()
                        .map_err(|e| io(format!("bad value: {e}")))?;
                    weights.extend(std::iter::repeat_n(w.to_bits(), copies));
                }
                edges.push((s, d));
                if copies == 2 {
                    edges.push((d, s));
                }
                seen += 1;
                if seen > nnz {
                    return Err(io(format!("more than the declared {nnz} entries")));
                }
            }
            if seen != nnz {
                return Err(io(format!("expected {nnz} entries, found {seen}")));
            }
            let n = rows.max(cols) as usize;
            Ok((
                n,
                edges.clone(),
                (weighted && !edges.is_empty()).then_some(weights),
            ))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every Matrix Market loader — streamed `Read`, streamed file
            /// without a pool and at 1/2/8 workers, block sizes down to one
            /// byte — returns what the plain reading returns.
            #[test]
            fn prop_matrix_market_loaders_match_the_plain_reading(
                seeds in proptest::collection::vec(any::<u64>(), 0..30),
                kind in 0usize..6,
                extra in 0u64..3,
                shape in 0u64..4,
            ) {
                let field = ["pattern", "real", "integer"][kind % 3];
                let symmetry = ["general", "symmetric"][kind / 3];
                let weighted = field != "pattern";
                let dims = 9;
                let body: Vec<String> = seeds.iter().map(|&r| mm_line(r, dims, weighted)).collect();
                // Declare the entry lines the body holds, give or take one.
                let entries = body.iter().filter(|l| {
                    let t = l.trim();
                    !t.is_empty() && !t.starts_with('%')
                }).count() as u64;
                let nnz = (entries + extra).saturating_sub(1);
                let mut lines = vec![
                    format!("%%MatrixMarket matrix coordinate {field} {symmetry}"),
                    "% a comment".to_string(),
                    format!("{dims} {dims} {nnz}"),
                ];
                lines.extend(body);
                let text = corpus(&lines, shape);
                let want = mm_reference(std::str::from_utf8(&text).unwrap());
                let opts = LoadOptions::default();
                prop_assert_eq!(&parsed(read_matrix_market(&text[..], &LoadOptions::default())), &want);
                let path = scratch_file(&text);
                for block in [1, 7, 64] {
                    let file = load_mm_streamed(&path, &opts, None, block);
                    prop_assert_eq!(&parsed(file), &want, "file, block {}", block);
                }
                for threads in [1, 2, 8] {
                    let pool = ThreadPool::single_group(threads);
                    for block in [1, 7, 64] {
                        let file = load_mm_streamed(&path, &opts, Some(&pool), block);
                        prop_assert_eq!(&parsed(file), &want, "{} threads, block {}", threads, block);
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
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
                let back = read_text_edgelist(&buf[..], &LoadOptions::default()).unwrap().0;
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
                let back = decode_binary(&encode_binary(&el), &LoadOptions::default()).unwrap();
                prop_assert_eq!(back.edges(), el.edges());
                let a: Vec<u64> = back.weights().unwrap_or(&[]).iter().map(|w| w.to_bits()).collect();
                let b: Vec<u64> = el.weights().unwrap_or(&[]).iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(a, b);
            }

            /// Encode → corrupt one byte → decode never panics, and always
            /// errors.
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
                prop_assert!(decode_binary(&bytes, &LoadOptions::default()).is_err(),
                    "corruption at byte {} mask {:#x} undetected", pos, mask);
            }

            /// Truncation at any offset errors — proptest variant of the
            /// exhaustive unit test, over arbitrary lists.
            #[test]
            fn prop_truncation_always_errors(
                edges in proptest::collection::vec((0u32..30, 0u32..30), 1..40),
                cut_seed in any::<usize>(),
            ) {
                let el = EdgeList::from_pairs(30, &edges).unwrap();
                let bytes = encode_binary(&el);
                let cut = cut_seed % bytes.len();
                prop_assert!(decode_binary(&bytes[..cut], &LoadOptions::default()).is_err());
            }
        }
    }
}
