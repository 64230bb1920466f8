//! Statement grouping over the tokenizer's channel-split lines.
//!
//! The analyzer's passes reason about *statements*, not physical lines: an
//! atomic call like
//!
//! ```text
//! let _ = writer.compare_exchange(
//!     0,
//!     id,
//!     Ordering::Relaxed,
//!     Ordering::Relaxed,
//! );
//! ```
//!
//! spans six lines, but its annotation sits adjacent to the *first* one and
//! the orderings sit on interior ones. This module folds a
//! [`SourceFile`]'s lines into logical
//! statements by tracking round/square-bracket balance: a statement ends on
//! the first line whose trailing code is `;`, `{`, or `}` at zero bracket
//! depth (curly braces are deliberately *not* balanced — they delimit
//! blocks, and block-delimiting lines are themselves boundaries).

use crate::lint::source::SourceFile;

/// One logical statement.
#[derive(Debug)]
pub struct Stmt {
    /// 0-based index of the statement's first line.
    pub first_line: usize,
    /// 0-based index one past the statement's last line.
    pub end_line: usize,
    /// The concatenated code channel of every line, space-joined.
    pub code: String,
    /// The concatenated comment channel of every line, space-joined.
    pub comment: String,
    /// True when the first line sits inside `#[cfg(test)]`-gated code.
    pub in_test: bool,
}

/// Longest statement the grouper will form; a run without a terminator
/// (e.g. a pathological macro body) flushes at this size so an unbalanced
/// line cannot swallow the rest of the file.
const MAX_STMT_LINES: usize = 24;

/// Groups `file`'s lines into statements.
pub fn statements(file: &SourceFile) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    let mut depth: i64 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.trim();
        if start.is_none() {
            if code.is_empty() {
                continue; // blank / comment-only lines between statements
            }
            start = Some(idx);
            depth = 0;
        }
        depth += bracket_delta(code);
        let terminated = depth <= 0
            && (code.ends_with(';')
                || code.ends_with('{')
                || code.ends_with('}')
                || code.ends_with(',')
                || code.ends_with("=>"));
        let first = start.expect("statement in progress");
        if terminated || idx - first + 1 >= MAX_STMT_LINES {
            out.push(build(file, first, idx + 1));
            start = None;
        }
    }
    if let Some(first) = start {
        out.push(build(file, first, file.lines.len()));
    }
    out
}

fn build(file: &SourceFile, first: usize, end: usize) -> Stmt {
    let lines = &file.lines[first..end];
    Stmt {
        first_line: first,
        end_line: end,
        code: lines
            .iter()
            .map(|l| l.code.trim())
            .collect::<Vec<_>>()
            .join(" "),
        comment: lines
            .iter()
            .map(|l| l.comment.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        in_test: lines.first().is_some_and(|l| l.in_test),
    }
}

/// Net round/square bracket depth change of one code line.
fn bracket_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '(' | '[' => d += 1,
            ')' | ']' => d -= 1,
            _ => {}
        }
    }
    d
}

/// True when the contiguous run of comment/attribute lines directly above
/// `stmt` (or any of the statement's own comments) contains `marker`.
/// Mirrors the lint pass's adjacency rule: the walk stops at the first
/// blank or code line, so stale comments further up never count.
pub fn has_adjacent_marker(file: &SourceFile, stmt: &Stmt, marker: &str) -> bool {
    adjacent_marker_text(file, stmt, marker).is_some()
}

/// Returns the remainder of the first adjacent comment containing `marker`
/// (text after the marker), searching the statement's own comments first
/// and then the contiguous comment/attribute run above it.
pub fn adjacent_marker_text(file: &SourceFile, stmt: &Stmt, marker: &str) -> Option<String> {
    if let Some(pos) = stmt.comment.find(marker) {
        return Some(stmt.comment[pos + marker.len()..].to_string());
    }
    let mut i = stmt.first_line;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        let is_comment = !line.comment.trim().is_empty() && line.code.trim().is_empty();
        if is_comment {
            if let Some(pos) = line.comment.find(marker) {
                return Some(line.comment[pos + marker.len()..].to_string());
            }
        } else if !line.is_attribute() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("x.rs"), text)
    }

    #[test]
    fn single_line_statements() {
        let f = parse("let a = 1;\nlet b = 2;\n");
        let s = statements(&f);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].code, "let a = 1;");
        assert_eq!(s[1].first_line, 1);
    }

    #[test]
    fn multi_line_call_groups() {
        let f = parse("let _ = w.compare_exchange(\n    0,\n    1,\n    Ordering::Relaxed,\n    Ordering::Relaxed,\n);\n");
        let s = statements(&f);
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(s[0].code.contains("compare_exchange"));
        assert_eq!(s[0].code.matches("Ordering::Relaxed").count(), 2);
    }

    #[test]
    fn method_chain_groups() {
        let f = parse("self.prof\n    .work_ns\n    .fetch_add(x, Ordering::Relaxed);\nnext();\n");
        let s = statements(&f);
        assert_eq!(s.len(), 2, "{s:?}");
        assert!(s[0].code.contains(".work_ns .fetch_add"));
    }

    #[test]
    fn braces_terminate() {
        let f = parse("if a.load(Ordering::Acquire) == 0 {\n    b();\n}\n");
        let s = statements(&f);
        assert_eq!(s.len(), 3);
        assert!(s[0].code.ends_with('{'));
    }

    #[test]
    fn adjacent_marker_above_and_inline() {
        let f = parse("// ATOMIC: relaxed-counter\nc.fetch_add(1, Ordering::Relaxed);\nd.load(Ordering::Relaxed); // ATOMIC: relaxed-flag\n");
        let s = statements(&f);
        assert_eq!(
            adjacent_marker_text(&f, &s[0], "ATOMIC:").map(|t| t.trim().to_string()),
            Some("relaxed-counter".to_string())
        );
        assert_eq!(
            adjacent_marker_text(&f, &s[1], "ATOMIC:").map(|t| t.trim().to_string()),
            Some("relaxed-flag".to_string())
        );
    }

    #[test]
    fn stale_marker_beyond_code_does_not_count() {
        let f =
            parse("// ATOMIC: relaxed-counter\nlet a = 1;\nc.fetch_add(1, Ordering::Relaxed);\n");
        let s = statements(&f);
        assert!(!has_adjacent_marker(&f, &s[1], "ATOMIC:"));
    }

    #[test]
    fn comment_only_lines_are_skipped() {
        let f = parse("// just a comment\n\nlet a = 1;\n");
        let s = statements(&f);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].first_line, 2);
    }
}
