//! The four lint rules.

use super::source::SourceFile;
use super::{Rule, Violation};
use std::path::Path;

/// Files allowed to use raw-pointer arithmetic and `transmute`: the SIMD
/// kernels (hand-tuned gathers need lane pointers) and the scheduler's
/// slot-buffer/thread-pool internals (documented ownership transfers).
const POINTER_ALLOWLIST: &[&str] = &[
    "crates/vsparse/src/simd/",
    "crates/sched/src/slots.rs",
    "crates/sched/src/pool.rs",
];

/// Hot paths where panics are forbidden outside test code: the engine's
/// per-edge loops and everything the scheduler runs under them.
const HOT_PATHS: &[&str] = &["crates/core/src/engine/", "crates/sched/src/"];

/// What an `unsafe` keyword on a line introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeKind {
    Fn,
    Impl,
    Block,
}

/// Rule 1: every `unsafe` block/impl carries a `SAFETY:` justification in
/// an adjacent comment; every `unsafe fn` documents its contract with a
/// `# Safety` doc section (or a `SAFETY:` comment).
pub fn safety_comments(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(kind) = classify_unsafe(&line.code) else {
            continue;
        };
        let justified = match kind {
            UnsafeKind::Fn => {
                has_adjacent_marker(file, idx, "# Safety")
                    || has_adjacent_marker(file, idx, "SAFETY:")
            }
            UnsafeKind::Impl | UnsafeKind::Block => has_adjacent_marker(file, idx, "SAFETY:"),
        };
        if !justified {
            let what = match kind {
                UnsafeKind::Fn => {
                    "`unsafe fn` without a `# Safety` doc section or `SAFETY:` comment"
                }
                UnsafeKind::Impl => "`unsafe impl` without a `SAFETY:` comment",
                UnsafeKind::Block => "`unsafe` block without a `SAFETY:` comment",
            };
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::SafetyComment,
                message: what.to_string(),
            });
        }
    }
    out
}

/// Finds the first `unsafe` keyword on the line and classifies what it
/// introduces. Returns `None` when the line has no `unsafe` token.
fn classify_unsafe(code: &str) -> Option<UnsafeKind> {
    let pos = find_word(code, "unsafe")?;
    let mut rest = code[pos + "unsafe".len()..].trim_start();
    // `unsafe extern "C" fn …`: skip the qualifier and the (blanked) ABI
    // literal so the `fn` token is visible.
    if let Some(r) = rest.strip_prefix("extern") {
        rest = r.trim_start();
        if let Some(r) = rest.strip_prefix('"') {
            rest = r.trim_start_matches(|c| c != '"');
            rest = rest.strip_prefix('"').unwrap_or(rest).trim_start();
        }
    }
    if starts_with_word(rest, "fn") {
        Some(UnsafeKind::Fn)
    } else if starts_with_word(rest, "impl") || starts_with_word(rest, "trait") {
        Some(UnsafeKind::Impl)
    } else {
        Some(UnsafeKind::Block)
    }
}

/// `starts_with` with a word boundary after the match.
fn starts_with_word(s: &str, word: &str) -> bool {
    s.starts_with(word)
        && !s[word.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Word-boundary search.
fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0
            || !haystack[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = haystack[pos + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

/// True when the line itself or the contiguous run of comment/attribute
/// lines directly above it contains `marker`. The walk stops at the first
/// blank or code line, so stale comments further up never count.
fn has_adjacent_marker(file: &SourceFile, idx: usize, marker: &str) -> bool {
    if file.lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        let is_comment = !line.comment.trim().is_empty() && line.is_code_blank();
        if is_comment {
            if line.comment.contains(marker) {
                return true;
            }
        } else if !line.is_attribute() {
            break;
        }
    }
    false
}

/// Rule 2: raw-pointer arithmetic and `transmute` only inside the
/// allowlist.
pub fn pointer_allowlist(file: &SourceFile) -> Vec<Violation> {
    let path = file.path_str();
    if POINTER_ALLOWLIST.iter().any(|p| path.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        // Word-boundary match so identifiers like `transmuted_view` don't
        // trip it; `transmute_copy` is covered explicitly.
        if find_word(&line.code, "transmute").is_some()
            || find_word(&line.code, "transmute_copy").is_some()
        {
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::PointerAllowlist,
                message: "`transmute` outside the allowlist".to_string(),
            });
        }
        if has_pointer_arithmetic(&line.code) {
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::PointerAllowlist,
                message: "raw-pointer arithmetic outside the allowlist".to_string(),
            });
        }
    }
    out
}

/// Detects pointer-offset calls: `.offset(` and friends always count;
/// `.add(` / `.sub(` only when the receiver chain looks pointer-valued
/// (ends in `as_ptr()` / `…_ptr()` / a `cast` call), so `stats.add(x)`
/// style methods don't trip it.
fn has_pointer_arithmetic(code: &str) -> bool {
    const ALWAYS: &[&str] = &[
        ".offset(",
        ".wrapping_offset(",
        ".byte_offset(",
        ".byte_add(",
        ".byte_sub(",
    ];
    if ALWAYS.iter().any(|needle| code.contains(needle)) {
        return true;
    }
    for needle in [".add(", ".sub(", ".wrapping_add(", ".wrapping_sub("] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(needle) {
            let pos = from + rel;
            if receiver_is_pointerish(&code[..pos]) {
                return true;
            }
            from = pos + needle.len();
        }
    }
    false
}

/// Inspects the last segment of the method chain preceding an `.add(` /
/// `.sub(` call.
fn receiver_is_pointerish(prefix: &str) -> bool {
    let tail: String = prefix
        .chars()
        .rev()
        .take_while(|&c| c.is_alphanumeric() || "_():<>.".contains(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let last = tail.rsplit('.').next().unwrap_or(&tail);
    last.contains("ptr") || last.starts_with("cast")
}

/// Rule 3: no `unwrap()` / `panic!` / `todo!` / `unimplemented!` in engine
/// and scheduler hot paths outside test code. Invariant failures must use
/// `expect("<invariant>")`, `assert!`, or error propagation, so a violated
/// assumption names itself in the backtrace.
pub fn hot_path_panics(file: &SourceFile) -> Vec<Violation> {
    let path = file.path_str();
    if !HOT_PATHS.iter().any(|p| path.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, what) in [
            (
                ".unwrap()",
                "`unwrap()` in a hot path (use `expect(\"<invariant>\")` or propagate)",
            ),
            (
                "panic!",
                "`panic!` in a hot path (use `assert!`/`expect` with an invariant message)",
            ),
            ("todo!", "`todo!` in a hot path"),
            ("unimplemented!", "`unimplemented!` in a hot path"),
        ] {
            if line.code.contains(needle)
                && find_word(
                    &line.code,
                    needle
                        .trim_start_matches('.')
                        .trim_end_matches(['(', ')', '!']),
                )
                .is_some()
            {
                out.push(Violation {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: Rule::HotPathPanic,
                    message: what.to_string(),
                });
            }
        }
    }
    out
}

/// Rule 5: every `catch_unwind` outside test code carries a `RECOVERY:`
/// justification in an adjacent comment. Swallowing a panic is only sound
/// when the containment story — what state the panic may have left behind
/// and how the caller restores correctness — is written down where the
/// panic is caught; the resilience layer (ISSUE 2) established the
/// convention and this rule keeps future catch sites honest.
pub fn recovery_comments(file: &SourceFile) -> Vec<Violation> {
    // Integration-test files (any `tests/` directory) are test code in
    // their entirety, like `#[cfg(test)]` modules.
    let path = file.path_str();
    if path.starts_with("tests/") || path.contains("/tests/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if find_word(&line.code, "catch_unwind").is_none() {
            continue;
        }
        if !has_adjacent_marker(file, idx, "RECOVERY:") {
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::RecoveryComment,
                message: "`catch_unwind` without a `RECOVERY:` comment documenting what \
                          state the caught panic may leave and how it is repaired"
                    .to_string(),
            });
        }
    }
    out
}

/// Directory whose modules must take engine timing through the flight
/// recorder's span helpers (`SpanClock`/`Deadline` in
/// `crates/core/src/trace.rs`) instead of reading the clock inline.
const ENGINE_CLOCK_PATH: &str = "crates/core/src/engine/";

/// Rule 6: no direct `Instant::now()` (or `Instant` import) in the engine
/// modules outside test code. Keeping every timing syscall behind the
/// recorder's span helpers makes the hot paths' clock usage auditable in
/// one file (`trace.rs`) and keeps ad-hoc timers from creeping into inner
/// loops (ISSUE 3, DESIGN.md §10).
pub fn engine_clock(file: &SourceFile) -> Vec<Violation> {
    let path = file.path_str();
    if !path.starts_with(ENGINE_CLOCK_PATH) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let inline_now = line.code.contains("Instant::now");
        let import =
            line.code.contains("time::Instant") && line.code.trim_start().starts_with("use ");
        if inline_now || import {
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::EngineClock,
                message: "engine modules must use the trace span helpers \
                          (`SpanClock`/`Deadline`) instead of `Instant` directly"
                    .to_string(),
            });
        }
    }
    out
}

/// Files making up the parallel ingestion/build pipeline (ISSUE 5): the
/// chunked text parse, the counting-sort CSR/CSC scatter, and the
/// Vector-Sparse encoder. Their determinism argument rests on disjoint
/// `split_at_mut` output ranges — 100% safe Rust — so *any* `unsafe`
/// here, even one carrying a SAFETY comment, is a design regression.
const PARALLEL_BUILD_PATHS: &[&str] = &[
    "crates/graph/src/io.rs",
    "crates/graph/src/csr.rs",
    "crates/graph/src/edgelist.rs",
    "crates/vsparse/src/build.rs",
    "crates/vsparse/src/packing.rs",
];

/// Rule 7: the parallel build path stays free of `unsafe` entirely. The
/// bit-identity guarantee of the parallel builders is proven by the type
/// system (disjoint mutable slices), not by auditing pointer math; adding
/// `unsafe` would silently downgrade that proof to a convention, so the
/// lint refuses it outright instead of asking for a SAFETY comment.
pub fn parallel_build_safe(file: &SourceFile) -> Vec<Violation> {
    let path = file.path_str();
    if !PARALLEL_BUILD_PATHS.iter().any(|p| path == *p) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if find_word(&line.code, "unsafe").is_some() {
            out.push(Violation {
                file: file.path.clone(),
                line: idx + 1,
                rule: Rule::ParallelBuildSafe,
                message: "`unsafe` in the parallel build path — the parallel \
                          ingestion pipeline must stay safe Rust (use disjoint \
                          `split_at_mut` ranges instead of raw pointers)"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule 4: the Vector-Sparse lane encoding in `vsparse/src/format.rs`
/// keeps Figure 4's fields in a 32-bit lane — `valid` flag in bit 31 (the
/// sign position, so AVX sign-predication works), a 4-bit TLV piece
/// directly above a 27-bit vertex id, and eight lanes whose pieces hold a
/// whole vertex id.
pub fn lane_encoding(root: &Path) -> std::io::Result<Vec<Violation>> {
    let rel = Path::new("crates/vsparse/src/format.rs");
    let path = root.join(rel);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            return Ok(vec![Violation {
                file: rel.to_path_buf(),
                line: 1,
                rule: Rule::LaneEncoding,
                message: "missing lane-encoding module (crates/vsparse/src/format.rs)".to_string(),
            }])
        }
    };
    Ok(lane_encoding_text(rel, &text))
}

/// Text-level checks for [`lane_encoding`], separated for testability.
pub fn lane_encoding_text(rel: &Path, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |line: usize, msg: &str| {
        out.push(Violation {
            file: rel.to_path_buf(),
            line,
            rule: Rule::LaneEncoding,
            message: msg.to_string(),
        });
    };

    let find_line = |needle: &str| -> Option<(usize, String)> {
        text.lines()
            .enumerate()
            .find(|(_, l)| squish(l).contains(&squish(needle)))
            .map(|(i, l)| (i + 1, l.to_string()))
    };
    // The squished right-hand side of `needle`'s line, without the `;`.
    let value_of = |needle: &str| -> Option<(usize, String)> {
        find_line(needle).map(|(n, line)| {
            let value = line.split_once('=').map_or("", |(_, v)| v);
            (n, squish(value).trim_end_matches(';').to_string())
        })
    };
    let number = |needle: &str| value_of(needle).and_then(|(_, v)| v.parse::<u32>().ok());

    // 27-bit vertex identifiers: a `u32` id of any graph this repo holds
    // (Table 1's largest, 105.9 M vertices, needs 27).
    match value_of("const VERTEX_BITS: u32 =") {
        Some((n, v)) if v != "27" => fail(n, "VERTEX_BITS must be 27 (the lane's vertex field)"),
        Some(_) => {}
        None => fail(1, "VERTEX_BITS constant not found"),
    }

    // Valid flag in the sign bit so SIMD sign-predication tests it free.
    match value_of("const VALID_BIT: u32 =") {
        Some((n, v)) if v != "1u32<<31" && v != "1<<31" => fail(
            n,
            "VALID_BIT must be bit 31 (sign position, for AVX mask tricks)",
        ),
        Some(_) => {}
        None => fail(1, "VALID_BIT constant not found"),
    }

    // TLV piece sits directly above the vertex id.
    match value_of("const TLV_SHIFT: u32 =") {
        Some((n, v)) if v != "VERTEX_BITS" && v != "27" => fail(
            n,
            "TLV_SHIFT must equal VERTEX_BITS (TLV piece above the vertex id)",
        ),
        Some(_) => {}
        None => fail(1, "TLV_SHIFT constant not found"),
    }

    // Mask covers exactly the vertex bits.
    match value_of("const VERTEX_MASK: u32 =") {
        Some((n, v)) if v != "(1u32<<VERTEX_BITS)-1" && v != "(1<<VERTEX_BITS)-1" => {
            fail(n, "VERTEX_MASK must be (1 << VERTEX_BITS) - 1")
        }
        Some(_) => {}
        None => fail(1, "VERTEX_MASK constant not found"),
    }

    // A 4-bit piece per lane, between the vertex id and the valid bit.
    match value_of("const TLV_PIECE_BITS: u32 =") {
        Some((n, v)) if v != "4" => fail(
            n,
            "TLV_PIECE_BITS must be 4 (a piece between the vertex id and the valid bit)",
        ),
        Some(_) => {}
        None => fail(1, "TLV_PIECE_BITS constant not found"),
    }

    // Eight lanes fill a 256-bit vector and their pieces hold a vertex id.
    match find_line("const LANES: usize =") {
        Some((n, _)) => {
            let pieces = number("const LANES: usize =").zip(number("const TLV_PIECE_BITS: u32 ="));
            let whole = pieces.is_some_and(|(lanes, bits)| {
                lanes == 8 && number("const VERTEX_BITS: u32 =").is_some_and(|v| lanes * bits >= v)
            });
            if !whole {
                fail(
                    n,
                    "LANES must be 8 and LANES x TLV_PIECE_BITS must cover VERTEX_BITS",
                );
            }
        }
        None => fail(1, "LANES constant not found"),
    }

    out
}

/// Removes all whitespace — text comparisons above are layout-insensitive.
fn squish(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::source::SourceFile;
    use std::path::Path;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::parse(Path::new(path), text)
    }

    // ---- rule 1: SAFETY comments -------------------------------------

    #[test]
    fn unsafe_block_without_safety_fires() {
        let f = file(
            "crates/core/src/x.rs",
            "fn f() {\n    unsafe { danger() };\n}\n",
        );
        let v = safety_comments(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, Rule::SafetyComment);
    }

    #[test]
    fn unsafe_block_with_adjacent_safety_passes() {
        let f = file(
            "crates/core/src/x.rs",
            "fn f() {\n    // SAFETY: justified.\n    unsafe { danger() };\n}\n",
        );
        assert!(safety_comments(&f).is_empty());
    }

    #[test]
    fn unsafe_block_with_same_line_safety_passes() {
        let f = file(
            "crates/core/src/x.rs",
            "let x = unsafe { d() }; // SAFETY: ok\n",
        );
        assert!(safety_comments(&f).is_empty());
    }

    #[test]
    fn stale_comment_beyond_code_line_does_not_count() {
        let f = file(
            "crates/core/src/x.rs",
            "// SAFETY: about something else\nlet a = 1;\nunsafe { d() };\n",
        );
        assert_eq!(safety_comments(&f).len(), 1);
    }

    #[test]
    fn unsafe_impl_needs_safety() {
        let f = file("crates/core/src/x.rs", "unsafe impl Sync for X {}\n");
        assert_eq!(safety_comments(&f).len(), 1);
        let ok = file(
            "crates/core/src/x.rs",
            "// SAFETY: X is immutable after construction.\nunsafe impl Sync for X {}\n",
        );
        assert!(safety_comments(&ok).is_empty());
    }

    #[test]
    fn unsafe_fn_needs_safety_doc_section() {
        let f = file("crates/core/src/x.rs", "pub unsafe fn raw() {}\n");
        assert_eq!(safety_comments(&f).len(), 1);
        let ok = file(
            "crates/core/src/x.rs",
            "/// Does raw things.\n///\n/// # Safety\n/// Caller must own the buffer.\npub unsafe fn raw() {}\n",
        );
        assert!(safety_comments(&ok).is_empty());
    }

    #[test]
    fn attributes_between_doc_and_fn_are_skipped() {
        let f = file(
            "crates/core/src/x.rs",
            "/// # Safety\n/// Caller checks AVX2.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n",
        );
        assert!(safety_comments(&f).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let f = file(
            "crates/core/src/x.rs",
            "let s = \"unsafe { }\"; // unsafe blocks are scary\n",
        );
        assert!(safety_comments(&f).is_empty());
    }

    // ---- rule 2: pointer allowlist -----------------------------------

    #[test]
    fn transmute_outside_allowlist_fires() {
        let f = file(
            "crates/core/src/x.rs",
            "let y = std::mem::transmute::<A, B>(x);\n",
        );
        let v = pointer_allowlist(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PointerAllowlist);
    }

    #[test]
    fn transmute_in_allowlisted_files_passes() {
        for path in [
            "crates/vsparse/src/simd/avx2.rs",
            "crates/sched/src/slots.rs",
            "crates/sched/src/pool.rs",
        ] {
            let f = file(path, "let y = transmute::<A, B>(x); p.as_ptr().add(1);\n");
            assert!(pointer_allowlist(&f).is_empty(), "{path}");
        }
    }

    #[test]
    fn pointer_add_outside_allowlist_fires() {
        let f = file("crates/apps/src/x.rs", "let p = v.as_ptr().add(i);\n");
        assert_eq!(pointer_allowlist(&f).len(), 1);
        let f = file("crates/apps/src/x.rs", "let p = base_ptr.offset(3);\n");
        assert_eq!(pointer_allowlist(&f).len(), 1);
    }

    #[test]
    fn non_pointer_add_does_not_fire() {
        let f = file(
            "crates/core/src/stats.rs",
            "p.add(&p.atomic_updates, 5);\nlet t = a.wrapping_add(b);\nset.sub(x);\n",
        );
        assert!(pointer_allowlist(&f).is_empty());
    }

    #[test]
    fn transmute_in_string_does_not_fire() {
        let f = file(
            "crates/core/src/x.rs",
            "let s = \"transmute\"; // transmute\n",
        );
        assert!(pointer_allowlist(&f).is_empty());
    }

    // ---- rule 3: hot-path panics -------------------------------------

    #[test]
    fn unwrap_in_hot_path_fires() {
        let f = file("crates/core/src/engine/pull.rs", "let v = x.unwrap();\n");
        let v = hot_path_panics(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::HotPathPanic);
    }

    #[test]
    fn panic_in_scheduler_fires() {
        let f = file("crates/sched/src/chunks.rs", "panic!(\"boom\");\n");
        assert_eq!(hot_path_panics(&f).len(), 1);
    }

    #[test]
    fn expect_with_invariant_passes() {
        let f = file(
            "crates/sched/src/pool.rs",
            "let g = m.lock().expect(\"job mutex poisoned\");\nassert!(ok, \"bad\");\n",
        );
        assert!(hot_path_panics(&f).is_empty());
    }

    #[test]
    fn test_module_is_exempt() {
        let f = file(
            "crates/core/src/engine/pull.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(\"t\"); }\n}\n",
        );
        assert!(hot_path_panics(&f).is_empty());
    }

    #[test]
    fn cold_paths_are_exempt() {
        let f = file("crates/graph/src/io.rs", "let v = x.unwrap();\n");
        assert!(hot_path_panics(&f).is_empty());
    }

    // ---- rule 5: recovery comments -----------------------------------

    #[test]
    fn catch_unwind_without_recovery_fires() {
        let f = file(
            "crates/core/src/engine/hybrid.rs",
            "let r = std::panic::catch_unwind(|| job());\n",
        );
        let v = recovery_comments(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RecoveryComment);
    }

    #[test]
    fn catch_unwind_with_adjacent_recovery_passes() {
        let f = file(
            "crates/core/src/engine/pull.rs",
            "// RECOVERY: chunk state is discarded; a clean retry redoes it.\n\
             let r = std::panic::catch_unwind(|| job());\n",
        );
        assert!(recovery_comments(&f).is_empty());
    }

    #[test]
    fn catch_unwind_in_integration_tests_is_exempt() {
        for path in [
            "tests/robustness.rs",
            "crates/apps/tests/fault_injection.rs",
        ] {
            let f = file(path, "let r = std::panic::catch_unwind(|| job());\n");
            assert!(recovery_comments(&f).is_empty(), "{path}");
        }
    }

    #[test]
    fn catch_unwind_in_test_code_is_exempt() {
        let f = file(
            "crates/core/src/faults.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::panic::catch_unwind(|| {}); }\n}\n",
        );
        assert!(recovery_comments(&f).is_empty());
    }

    #[test]
    fn stale_recovery_comment_does_not_count() {
        let f = file(
            "crates/sched/src/pool.rs",
            "// RECOVERY: about something else\nlet a = 1;\nlet r = std::panic::catch_unwind(f);\n",
        );
        assert_eq!(recovery_comments(&f).len(), 1);
    }

    // ---- rule 6: engine clock ----------------------------------------

    #[test]
    fn instant_now_in_engine_module_fires() {
        let f = file(
            "crates/core/src/engine/pull.rs",
            "let t = std::time::Instant::now();\n",
        );
        let v = engine_clock(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::EngineClock);
    }

    #[test]
    fn instant_import_in_engine_module_fires() {
        let f = file(
            "crates/core/src/engine/hybrid.rs",
            "use std::time::Instant;\n",
        );
        assert_eq!(engine_clock(&f).len(), 1);
    }

    #[test]
    fn span_helpers_and_duration_pass() {
        let f = file(
            "crates/core/src/engine/pull.rs",
            "use crate::trace::{Deadline, SpanClock};\nuse std::time::Duration;\nlet w = SpanClock::start();\n",
        );
        assert!(engine_clock(&f).is_empty());
    }

    #[test]
    fn instant_outside_engine_modules_is_allowed() {
        for path in ["crates/core/src/trace.rs", "crates/bench/src/report.rs"] {
            let f = file(path, "let t = std::time::Instant::now();\n");
            assert!(engine_clock(&f).is_empty(), "{path}");
        }
    }

    #[test]
    fn engine_test_code_is_exempt() {
        let f = file(
            "crates/core/src/engine/push.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n",
        );
        assert!(engine_clock(&f).is_empty());
    }

    // ---- rule 7: parallel build path stays safe ----------------------

    #[test]
    fn unsafe_in_parallel_build_path_fires_even_with_safety_comment() {
        for path in PARALLEL_BUILD_PATHS {
            let f = file(
                path,
                "// SAFETY: ranges are disjoint.\nunsafe { scatter(p) };\n",
            );
            let v = parallel_build_safe(&f);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].rule, Rule::ParallelBuildSafe);
            assert_eq!(v[0].line, 2);
        }
    }

    #[test]
    fn unsafe_outside_parallel_build_path_is_this_rules_business_not() {
        let f = file(
            "crates/vsparse/src/simd/avx2.rs",
            "unsafe { _mm256_i64gather_pd(p, idx, 8) };\n",
        );
        assert!(parallel_build_safe(&f).is_empty());
    }

    #[test]
    fn safe_parallel_build_code_passes() {
        let f = file(
            "crates/graph/src/csr.rs",
            "let (head, tail) = rest.split_at_mut(len);\n// unsafe would be a regression here\n",
        );
        assert!(parallel_build_safe(&f).is_empty());
    }

    // ---- rule 4: lane encoding ---------------------------------------

    const GOOD_FORMAT: &str = "pub const LANES: usize = 8;\n\
        pub const VERTEX_BITS: u32 = 27;\n\
        pub const VERTEX_MASK: u32 = (1u32 << VERTEX_BITS) - 1;\n\
        pub const VALID_BIT: u32 = 1u32 << 31;\n\
        pub const TLV_SHIFT: u32 = VERTEX_BITS;\n\
        pub const TLV_PIECE_BITS: u32 = 4;\n";

    /// The violations of `GOOD_FORMAT` with `from` replaced by `to`.
    fn mutated(from: &str, to: &str) -> Vec<Violation> {
        assert!(GOOD_FORMAT.contains(from), "{from}");
        lane_encoding_text(Path::new("f.rs"), &GOOD_FORMAT.replace(from, to))
    }

    fn fires(v: &[Violation], field: &str) -> bool {
        v.iter().any(|v| v.message.contains(field))
    }

    #[test]
    fn correct_lane_constants_pass() {
        let v = lane_encoding_text(Path::new("f.rs"), GOOD_FORMAT);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wrong_vertex_bits_fires() {
        let v = mutated("VERTEX_BITS: u32 = 27", "VERTEX_BITS: u32 = 28");
        assert!(fires(&v, "VERTEX_BITS"), "{v:?}");
        // The paper's 48-bit field does not fit a 32-bit lane.
        let v = mutated("VERTEX_BITS: u32 = 27", "VERTEX_BITS: u32 = 48");
        assert!(fires(&v, "VERTEX_BITS"), "{v:?}");
    }

    #[test]
    fn wrong_valid_bit_fires() {
        let v = mutated("1u32 << 31", "1u32 << 30");
        assert!(fires(&v, "VALID_BIT"), "{v:?}");
    }

    #[test]
    fn wrong_tlv_shift_fires() {
        let v = mutated("TLV_SHIFT: u32 = VERTEX_BITS", "TLV_SHIFT: u32 = 28");
        assert!(fires(&v, "TLV_SHIFT"), "{v:?}");
    }

    #[test]
    fn wrong_vertex_mask_fires() {
        let v = mutated("(1u32 << VERTEX_BITS) - 1", "(1u32 << VERTEX_BITS)");
        assert!(fires(&v, "VERTEX_MASK"), "{v:?}");
    }

    #[test]
    fn missing_piece_mapping_fires() {
        let v = mutated("TLV_PIECE_BITS: u32 = 4", "TLV_PIECE_BITS: u32 = 3");
        assert!(fires(&v, "TLV_PIECE_BITS"), "{v:?}");
        // Three-bit pieces cannot hold a 27-bit id across eight lanes.
        assert!(fires(&v, "LANES"), "{v:?}");
        let v = mutated("pub const TLV_PIECE_BITS: u32 = 4;", "");
        assert!(fires(&v, "TLV_PIECE_BITS constant not found"), "{v:?}");
    }

    #[test]
    fn wrong_lane_count_fires() {
        let v = mutated("LANES: usize = 8", "LANES: usize = 4");
        assert!(fires(&v, "LANES"), "{v:?}");
    }

    #[test]
    fn explicit_literals_also_pass() {
        let v = lane_encoding_text(
            Path::new("f.rs"),
            &GOOD_FORMAT
                .replace("TLV_SHIFT: u32 = VERTEX_BITS", "TLV_SHIFT: u32 = 27")
                .replace("1u32 << 31", "1 << 31")
                .replace("(1u32 << VERTEX_BITS) - 1", "(1 << VERTEX_BITS) - 1"),
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
