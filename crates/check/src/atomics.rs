//! Atomic-ordering audit.
//!
//! Every `Ordering::Relaxed` and `Ordering::SeqCst` site must carry an
//! `// ordering: <why this is sound>` justification on its statement (or
//! the comment block directly above). `Relaxed` is audited because it is
//! the ordering that silently breaks cross-thread publication; `SeqCst`
//! because it is almost always either a missing-reasoning default or an
//! overpriced `Acquire`/`Release` — both deserve a written argument.
//! `Acquire`/`Release`/`AcqRel` sites encode their intent in the name
//! and are left alone.

use std::path::Path;

use crate::diag::{Lint, Report};
use crate::lexer::{tokens, LexedFile};
use crate::scan::annotated;

/// Runs the audit over one file. `path` is workspace-relative.
pub fn check_file(path: &Path, file: &LexedFile, report: &mut Report) {
    let toks = tokens(file);
    for i in 0..toks.len() {
        if toks[i].text != "Ordering" {
            continue;
        }
        if !(toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text == ":"))
        {
            continue;
        }
        let Some(which) = toks.get(i + 3) else {
            continue;
        };
        if which.text != "Relaxed" && which.text != "SeqCst" {
            continue;
        }
        let line = which.line;
        if file.lines[line - 1].in_test {
            continue;
        }
        if annotated(file, line, "ordering:") {
            continue;
        }
        report.push(
            Lint::Atomics,
            path,
            line,
            format!(
                "`Ordering::{}` without an `// ordering: <why this is sound>` justification",
                which.text
            ),
        );
    }
}
