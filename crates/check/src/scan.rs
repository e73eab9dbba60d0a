//! Workspace walking, annotation lookup, and function-span extraction —
//! the shared substrate under the individual lints.

use std::path::{Path, PathBuf};

use crate::lexer::{LexedFile, Tok};

/// Rust keywords that can be followed by `(` without being a call.
pub const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as", "where", "else",
    "let", "mut", "ref", "pub", "use", "impl", "dyn", "box", "await", "break", "continue",
];

/// Recursively collects `.rs` files under `root/crates` (and the root
/// `Cargo.toml` members' bins), workspace-relative, sorted. Skips
/// `target/`, `testdata/`, `vendor/`, and anything under `tests/`,
/// `benches/` or `examples/` directories — the lints guard *library and
/// binary* code, not tests.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(&root.join("crates"), root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | "testdata" | "vendor" | "tests" | "benches" | "examples" | ".git"
            ) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Looks for `marker` in the comments attached to the statement
/// containing `line` (1-based): the line itself, earlier lines of the
/// same multi-line statement, and the contiguous comment block directly
/// above the statement.
pub fn annotated(file: &LexedFile, line: usize, marker: &str) -> bool {
    let idx = line.saturating_sub(1);
    if idx >= file.lines.len() {
        return false;
    }
    let mut start = idx;
    while start > 0 {
        let above = &file.lines[start - 1];
        if above.is_comment_only() {
            start -= 1;
            continue;
        }
        let code = above.code.trim_end();
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') || code.ends_with(']')
        {
            break;
        }
        start -= 1;
    }
    file.lines[start..=idx]
        .iter()
        .any(|l| l.comment.contains(marker))
}

/// A function item's extent in a token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's bare name.
    pub name: String,
    /// Token index of the body's opening `{` (exclusive of the brace
    /// itself when iterating the body).
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// Extracts every `fn` item's name and body token range. Function items
/// without a body (trait declarations) are skipped.
pub fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let name = name_tok.text.clone();
        // Find the body `{`, or a `;` ending a bodiless declaration.
        // Angle brackets in generics may nest; braces do not appear in
        // signatures (const-generic brace expressions are rare enough
        // to ignore for a linter).
        let mut j = i + 2;
        let mut body = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "{" => {
                    body = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open;
        let mut close = toks.len() - 1;
        while let Some(t) = toks.get(k) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push(FnSpan {
            name,
            body_start: open,
            body_end: close,
        });
        // Continue scanning *inside* the body too (nested fns).
        i += 2;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, tokens};

    #[test]
    fn annotation_window_covers_statement_and_comment_block() {
        let src = "fn f() {\n    // ordering: fine here\n    x.store(\n        1,\n        O,\n    );\n    y.store(2, O);\n}\n";
        let f = lex(src);
        // Line 5 is part of the statement starting line 3, whose
        // preceding comment block is line 2.
        assert!(annotated(&f, 5, "ordering:"));
        // Line 7 is a fresh statement with no annotation.
        assert!(!annotated(&f, 7, "ordering:"));
    }

    #[test]
    fn fn_spans_find_bodies() {
        let f = lex("impl A {\n    fn one(&self) -> u32 {\n        2\n    }\n}\nfn two() {}\n");
        let toks = tokens(&f);
        let spans = fn_spans(&toks);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "one");
        assert_eq!(spans[1].name, "two");
    }
}
