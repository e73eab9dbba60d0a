//! Public-surface ratchet (`--api`).
//!
//! Lists every item marked plain `pub` in non-test code of the
//! workspace crates — functions, types, constants, modules, fields,
//! re-exported names, and the methods a `pub trait` declares — as
//! `crate::module::Container::name` lines (crate = its directory under
//! `crates/`), and compares the sorted list with the checked-in
//! `crates/check/api.txt`. Any difference is a finding, so a PR that
//! grows, shrinks or renames the surface carries the change in its
//! diff: add the named line to `api.txt`, or delete it.
//!
//! The listing is lexical — what is *marked* `pub`, not what is
//! reachable from outside the crate; `pub(crate)` and friends never
//! count.

use std::path::{Path, PathBuf};

use crate::diag::{Lint, Report};
use crate::lexer::{tokens, LexedFile, Tok};

/// Keywords that name the item a `pub` introduces.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Keywords whose `{` opens a named container.
const CONTAINERS: &[&str] = &["trait", "mod", "struct", "enum", "union"];

/// `crates/core/src/engine/mod.rs` → `core::engine`.
pub fn module_path(rel: &Path) -> String {
    let parts: Vec<String> = rel
        .with_extension("")
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .filter(|c| !matches!(c.as_str(), "crates" | "src" | "lib" | "main" | "mod"))
        .collect();
    parts.join("::")
}

/// The type an `impl` header (tokens after `impl`, up to its `{`) is
/// for: the last path segment outside angle brackets, after any `for`.
fn impl_target(header: &[Tok]) -> String {
    let mut depth = 0i32;
    let mut name = String::new();
    for (i, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" if i > 0 && header[i - 1].text == "-" => {}
            ">" => depth -= 1,
            "where" if depth == 0 => break,
            "for" if depth == 0 => name.clear(),
            _ if depth == 0 && t.is_word() => name.clone_from(&t.text),
            _ => {}
        }
    }
    name
}

/// The public items of one file as `(path, line)`, in source order.
/// `module` prefixes every path (see [`module_path()`]).
pub fn items(module: &str, file: &LexedFile) -> Vec<(String, usize)> {
    let toks = tokens(file);
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    // One frame per open `{`: the container's name (if it has one) and
    // whether it is a `pub trait`, whose `fn`s are public unmarked.
    let mut frames: Vec<Option<(String, bool)>> = Vec::new();
    let mut pending: Option<(String, bool)> = None;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let live = !file.lines[toks[i].line - 1].in_test;
        let mut record = |name: &str, frames: &[Option<(String, bool)>]| {
            let mut path = module.to_string();
            for (container, _) in frames.iter().flatten() {
                path.push_str("::");
                path.push_str(container);
            }
            out.push((format!("{path}::{name}"), toks[i].line));
        };
        match text(i) {
            "{" => frames.push(pending.take()),
            "}" => {
                frames.pop();
            }
            ";" => pending = None,
            "impl" if i == 0 || matches!(text(i - 1), "}" | ";" | "]" | "{" | "unsafe") => {
                let end = (i + 1..toks.len())
                    .find(|&j| text(j) == "{")
                    .unwrap_or(toks.len());
                pending = Some((impl_target(&toks[i + 1..end]), false));
            }
            kw if CONTAINERS.contains(&kw) && toks.get(i + 1).is_some_and(Tok::is_word) => {
                pending = Some((
                    text(i + 1).to_string(),
                    kw == "trait" && i > 0 && text(i - 1) == "pub",
                ));
            }
            "fn" if live && matches!(frames.last(), Some(Some((_, true)))) => {
                record(text(i + 1), &frames);
            }
            "pub" if live && text(i + 1) != "(" => {
                let mut j = i + 1;
                while matches!(text(j), "async" | "unsafe" | "extern" | "\"")
                    || (text(j) == "const"
                        && matches!(text(j + 1), "fn" | "async" | "unsafe" | "extern"))
                {
                    j += 1;
                }
                if ITEM_KEYWORDS.contains(&text(j)) {
                    let name = if text(j + 1) == "mut" { j + 2 } else { j + 1 };
                    record(text(name), &frames);
                } else if text(j) == "use" {
                    // Every leaf of the use tree: a name (or `*`) that a
                    // `,`, `}` or `;` follows — after `as`, the new name.
                    let mut k = j + 1;
                    while k < toks.len() && text(k) != ";" {
                        if matches!(text(k + 1), "," | "}" | ";")
                            && (toks[k].is_word() || text(k) == "*")
                        {
                            record(text(k), &frames);
                        }
                        k += 1;
                    }
                } else if text(j + 1) == ":" && text(j + 2) != ":" {
                    record(text(j), &frames);
                }
            }
            _ => {}
        }
    }
    out
}

/// Compares the workspace's public items with the checked-in listing
/// (`#` comments and blank lines ignored; order free): an item missing
/// from the listing fires at its source line, a stale listing line
/// fires at its line in `api.txt`.
pub fn check(mut found: Vec<(String, PathBuf, usize)>, listing: &str, report: &mut Report) {
    let api_txt = Path::new("crates/check/api.txt");
    let mut listed: Vec<(&str, usize)> = listing
        .lines()
        .enumerate()
        .map(|(i, l)| (l.trim(), i + 1))
        .filter(|(l, _)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    found.sort();
    listed.sort_unstable();
    let (mut f, mut l) = (0, 0);
    while f < found.len() || l < listed.len() {
        let ord = match (found.get(f), listed.get(l)) {
            (Some(a), Some(b)) => a.0.as_str().cmp(b.0),
            (Some(_), None) => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        };
        match ord {
            std::cmp::Ordering::Equal => {
                f += 1;
                l += 1;
            }
            std::cmp::Ordering::Less => {
                let (name, path, line) = &found[f];
                let message = format!("`{name}` is public but not listed in {}", api_txt.display());
                report.push(Lint::Api, path, *line, message);
                f += 1;
            }
            std::cmp::Ordering::Greater => {
                let (name, line) = listed[l];
                let message = format!("`{name}` is listed but no longer public; delete the line");
                report.push(Lint::Api, api_txt, line, message);
                l += 1;
            }
        }
    }
}
