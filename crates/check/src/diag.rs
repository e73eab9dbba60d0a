//! Diagnostics: collection, human and JSON output.

use std::fmt;
use std::path::Path;

/// Which lint produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// Atomic-ordering audit.
    Atomics,
    /// Lock-hierarchy deadlock detector.
    Locks,
    /// Manifest drift guard (`workspace_guard`'s one entry point).
    Manifests,
    /// Public-surface ratchet.
    Api,
}

impl Lint {
    /// Stable lowercase name used in output.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Atomics => "atomics",
            Lint::Locks => "locks",
            Lint::Manifests => "manifests",
            Lint::Api => "api",
        }
    }
}

/// One finding, pointing at a workspace-relative `path:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for whole-file/manifest findings).
    pub line: usize,
    /// What went wrong and what would satisfy the lint.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.lint.name(), self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path,
                self.line,
                self.lint.name(),
                self.message
            )
        }
    }
}

/// Accumulates findings across lints.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in scan order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Records a finding.
    pub fn push(&mut self, lint: Lint, path: &Path, line: usize, message: String) {
        self.diagnostics.push(Diagnostic {
            lint,
            path: path.to_string_lossy().replace('\\', "/"),
            line,
            message,
        });
    }
}

/// Renders findings as a JSON array (machine output for CI artifacts).
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diagnostics.iter().enumerate() {
        out.push_str("  {\"lint\":\"");
        out.push_str(d.lint.name());
        out.push_str("\",\"path\":\"");
        json_escape_into(&mut out, &d.path);
        out.push_str("\",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"message\":\"");
        json_escape_into(&mut out, &d.message);
        out.push_str("\"}");
        if i + 1 < diagnostics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4u32, 0] {
                    let d = (b >> shift) & 0xf;
                    out.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let d = vec![Diagnostic {
            lint: Lint::Api,
            path: "a\"b.rs".into(),
            line: 1,
            message: "say \"hi\"\n".into(),
        }];
        let j = to_json(&d);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\\n"));
    }
}
