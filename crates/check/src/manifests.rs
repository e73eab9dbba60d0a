//! Manifest drift / dependency-DAG guard (`--manifests`).
//!
//! The crate dependency DAG must stay acyclic and honour the intended
//! layering, every shared dependency must be pinned once in
//! `[workspace.dependencies]` and referenced with `workspace = true`,
//! the member list must match the directories on disk in both
//! directions, no member may declare a cargo feature, and every crate
//! the two tables below name must be a member (so a deleted crate
//! cannot linger in them). `eval`'s `workspace_guard` test runs the
//! same code under `cargo test`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::diag::{Lint, Report};

/// Crates whose versions are managed centrally; members must reference
/// them via `workspace = true`.
pub const WORKSPACE_MANAGED: &[&str] = &[
    "tkspmv",
    "tkspmv_fixed",
    "tkspmv_sparse",
    "tkspmv_obs",
    "tkspmv_baselines",
    "tkspmv_serve",
    "tkspmv_fabric",
    "tkspmv_eval",
    "tkspmv_check",
    "proptest",
];

/// The intended layering: `(lower, upper)` — lower must never depend on
/// upper.
pub const LAYERING: &[(&str, &str)] = &[
    ("tkspmv_fixed", "tkspmv_sparse"),
    ("tkspmv_sparse", "tkspmv"),
    ("tkspmv", "tkspmv_baselines"),
    ("tkspmv", "tkspmv_serve"),
    ("tkspmv_baselines", "tkspmv_eval"),
    ("tkspmv_serve", "tkspmv_eval"),
    ("tkspmv_serve", "tkspmv_fabric"),
    ("tkspmv_fabric", "tkspmv_eval"),
    ("tkspmv_obs", "tkspmv_serve"),
    ("tkspmv_obs", "tkspmv_fabric"),
    ("tkspmv_obs", "tkspmv"),
];

/// Minimal TOML scan: `(package_name, deps)` where `deps` maps a
/// dependency name to whether it is declared with `workspace = true`.
/// Covers only the manifest shapes this workspace uses.
fn scan_manifest(text: &str) -> (String, BTreeMap<String, bool>) {
    let mut package_name = String::new();
    let mut section = String::new();
    let mut deps = BTreeMap::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if section == "package" && key == "name" {
            package_name = value.trim_matches('"').to_string();
        }
        if matches!(section.as_str(), "dependencies" | "dev-dependencies") {
            let name = key.split('.').next().unwrap_or(key).to_string();
            let via_workspace =
                key.ends_with(".workspace") || value.replace(' ', "").contains("workspace=true");
            deps.insert(name, via_workspace);
        }
    }
    (package_name, deps)
}

/// 1-based line of the manifest's `[features]` table, if it has one.
fn features_table_line(text: &str) -> Option<usize> {
    text.lines()
        .position(|l| l.trim() == "[features]")
        .map(|i| i + 1)
}

fn member_manifests(root: &Path, report: &mut Report) -> Vec<(PathBuf, String)> {
    let mut found = Vec::new();
    for dir in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            report.push(
                Lint::Manifests,
                Path::new(dir),
                0,
                "workspace directory missing".to_string(),
            );
            continue;
        };
        for entry in entries.flatten() {
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                match std::fs::read_to_string(&manifest) {
                    Ok(text) => {
                        let rel = manifest
                            .strip_prefix(root)
                            .unwrap_or(&manifest)
                            .to_path_buf();
                        found.push((rel, text));
                    }
                    Err(e) => report.push(
                        Lint::Manifests,
                        &manifest,
                        0,
                        format!("unreadable manifest: {e}"),
                    ),
                }
            }
        }
    }
    found.sort();
    found
}

/// Runs every manifest check against the workspace at `root`.
pub fn check(root: &Path, report: &mut Report) {
    let manifests = member_manifests(root, report);
    let root_manifest_path = root.join("Cargo.toml");
    let root_text = match std::fs::read_to_string(&root_manifest_path) {
        Ok(t) => t,
        Err(e) => {
            report.push(
                Lint::Manifests,
                Path::new("Cargo.toml"),
                0,
                format!("unreadable root manifest: {e}"),
            );
            return;
        }
    };

    // --- DAG acyclicity + layering -----------------------------------
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (path, text) in &manifests {
        let (name, deps) = scan_manifest(text);
        if name.is_empty() {
            report.push(Lint::Manifests, path, 0, "no [package] name".to_string());
            continue;
        }
        let internal: BTreeSet<String> = deps
            .keys()
            .filter(|d| WORKSPACE_MANAGED.contains(&d.as_str()))
            .cloned()
            .collect();
        graph.insert(name, internal);
    }
    let named: BTreeSet<&str> = WORKSPACE_MANAGED
        .iter()
        .copied()
        .chain(LAYERING.iter().flat_map(|&(lower, upper)| [lower, upper]))
        .collect();
    for name in named.into_iter().filter(|n| !graph.contains_key(*n)) {
        report.push(
            Lint::Manifests,
            Path::new("crates/check/src/manifests.rs"),
            0,
            format!("{name} is named in WORKSPACE_MANAGED or LAYERING but matches no member's [package] name"),
        );
    }
    let mut remaining = graph.clone();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let ready: Vec<String> = remaining
            .iter()
            .filter(|(_, deps)| deps.iter().all(|d| !remaining.contains_key(d)))
            .map(|(n, _)| n.clone())
            .collect();
        if ready.is_empty() {
            report.push(
                Lint::Manifests,
                Path::new("Cargo.toml"),
                0,
                format!(
                    "dependency cycle among crates: {:?}",
                    remaining.keys().collect::<Vec<_>>()
                ),
            );
            break;
        }
        for name in ready {
            remaining.remove(&name);
            order.push(name);
        }
    }
    let position: BTreeMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    for (lower, upper) in LAYERING {
        if let (Some(&pl), Some(&pu)) = (position.get(lower), position.get(upper)) {
            if pl >= pu {
                report.push(
                    Lint::Manifests,
                    Path::new("Cargo.toml"),
                    0,
                    format!("layering violated: {lower} should sort before {upper}"),
                );
            }
        }
        if graph.get(*lower).is_some_and(|deps| deps.contains(*upper)) {
            report.push(
                Lint::Manifests,
                Path::new("Cargo.toml"),
                0,
                format!("{lower} must not depend on {upper}"),
            );
        }
    }

    // --- workspace.dependencies coverage -----------------------------
    let mut in_table = BTreeSet::new();
    let mut section = String::new();
    for raw in root_text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if section == "workspace.dependencies" {
            if let Some((key, _)) = line.split_once('=') {
                in_table.insert(key.trim().split('.').next().unwrap_or("").to_string());
            }
        }
    }
    for name in WORKSPACE_MANAGED {
        if !in_table.contains(*name) {
            report.push(
                Lint::Manifests,
                Path::new("Cargo.toml"),
                0,
                format!("{name} missing from [workspace.dependencies]"),
            );
        }
    }
    for (path, text) in &manifests {
        let (member, deps) = scan_manifest(text);
        // A cargo feature is a build-time option: every one doubles the
        // configurations CI must build, lint and measure.
        if let Some(line) = features_table_line(text) {
            report.push(
                Lint::Manifests,
                path,
                line,
                format!("{member} declares a [features] table; workspace members carry no cargo features"),
            );
        }
        for (dep, via_workspace) in deps {
            if WORKSPACE_MANAGED.contains(&dep.as_str()) && !via_workspace {
                report.push(
                    Lint::Manifests,
                    path,
                    0,
                    format!("{member} pins `{dep}` directly; use `{dep} = {{ workspace = true }}`"),
                );
            }
        }
    }

    // --- member list matches the disk, both directions ---------------
    for (path, _) in &manifests {
        let rel = path
            .parent()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .unwrap_or_default();
        if !root_text.contains(&format!("\"{rel}\"")) {
            report.push(
                Lint::Manifests,
                Path::new("Cargo.toml"),
                0,
                format!("{rel} exists on disk but is not listed in [workspace] members"),
            );
        }
    }
    let mut in_members = false;
    for raw in root_text.lines() {
        let line = raw.trim();
        if line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split(',') {
                let piece = piece.trim();
                if let Some(rel) = piece.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
                    if !root.join(rel).join("Cargo.toml").is_file() {
                        report.push(
                            Lint::Manifests,
                            Path::new("Cargo.toml"),
                            0,
                            format!("member `{rel}` listed but has no Cargo.toml on disk"),
                        );
                    }
                }
            }
            if line.ends_with(']') {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_table_is_found_by_line() {
        let clean = "[package]\nname = \"x\"\n\n[dependencies]\n# [features] in a comment\n";
        assert_eq!(features_table_line(clean), None);
        let knob = "[package]\nname = \"x\"\n\n  [features]\ntimers = []\n";
        assert_eq!(features_table_line(knob), Some(4));
    }

    /// A workspace on disk with one package per name in `members`, each
    /// depending on the names `LAYERING` puts below it, and every
    /// `WORKSPACE_MANAGED` name pinned in its root table.
    fn scratch_workspace(members: &[&str]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("tkspmv_check_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("vendor")).unwrap();
        let mut manifest = "[workspace]\nmembers = [\n".to_string();
        for name in members {
            let dir = root.join("crates").join(name);
            std::fs::create_dir_all(&dir).unwrap();
            let mut package = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
            for (lower, _) in LAYERING
                .iter()
                .filter(|(l, u)| u == name && members.contains(l))
            {
                package.push_str(&format!("{lower} = {{ workspace = true }}\n"));
            }
            std::fs::write(dir.join("Cargo.toml"), package).unwrap();
            manifest.push_str(&format!("    \"crates/{name}\",\n"));
        }
        manifest.push_str("]\n\n[workspace.dependencies]\n");
        for name in WORKSPACE_MANAGED {
            manifest.push_str(&format!("{name} = {{ path = \"crates/{name}\" }}\n"));
        }
        std::fs::write(root.join("Cargo.toml"), manifest).unwrap();
        root
    }

    #[test]
    fn table_names_that_match_no_member_are_reported() {
        let messages = |members: &[&str]| -> Vec<String> {
            let root = scratch_workspace(members);
            let mut report = Report::default();
            check(&root, &mut report);
            std::fs::remove_dir_all(&root).unwrap();
            report.diagnostics.into_iter().map(|d| d.message).collect()
        };
        assert_eq!(messages(WORKSPACE_MANAGED), Vec::<String>::new());

        let without_eval: Vec<&str> = WORKSPACE_MANAGED
            .iter()
            .copied()
            .filter(|n| *n != "tkspmv_eval")
            .collect();
        let found = messages(&without_eval);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("tkspmv_eval is named"), "{found:?}");
    }
}
