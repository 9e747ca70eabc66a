//! `scale-lint` — the repo's in-tree source analyzer.
//!
//! SCALE's performance and resilience claims rest on properties that
//! ordinary compilation cannot enforce: the routing hot path must stay
//! allocation-free, library code must not panic on malformed input,
//! experiments must be seed-deterministic, and async transport code
//! must not hold blocking locks across suspension points. Since this
//! build environment is offline (no external lint crates beyond
//! clippy), the analyzer is built in-repo: a string/comment-aware
//! scanner ([`scan`]) plus token-shaped rule passes ([`rules`]).
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p scale-lint -- --workspace
//! ```
//!
//! Exit status is non-zero when any violation is found. Individual
//! findings can be waived with `// lint: allow(<rule>): <reason>`
//! either trailing the offending line or on its own line before the
//! offending item — the reason is mandatory by convention and reviewed
//! like any other code.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use rules::Violation;
use std::path::{Path, PathBuf};

/// Directories never scanned: vendored shims are external code, target
/// is build output, fixtures are deliberately-broken lint test inputs.
const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures", ".git"];

/// Does `dir` hold a manifest that declares its own `[workspace]`? Such
/// a directory below the root is a separate package tree (the repo
/// benchmark under `benchmark/` is one: a bin-only harness with its own
/// lock file), not library code of the workspace being linted.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Recursively collect the workspace's `.rs` files, sorted for stable
/// report ordering. Named `SKIP_DIRS` and nested workspaces are not
/// descended into.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !is_workspace_root(&path) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lint every workspace source under `root`; returns all violations.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for path in workspace_sources(root) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(rules::check_file(&rel, &src));
    }
    out.extend(check_vendor_drift(root));
    out
}

/// Where the vendored-shim checksum manifest lives, relative to the
/// workspace root.
pub const VENDOR_MANIFEST: &str = "crates/lint/vendor-manifest.txt";

/// FNV-1a 64-bit — deterministic content hash, no dependencies. Drift
/// detection needs collision *accidents* to be unlikely, not
/// adversarial resistance: anyone who can engineer a collision can
/// also just edit the manifest.
fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash every vendored shim under `root/vendor/`: one `(name, hex)`
/// per shim directory, folding each file's repo-relative path and
/// contents in sorted order (so the hash is independent of directory
/// iteration order).
pub fn vendor_shim_hashes(root: &Path) -> Vec<(String, String)> {
    let vendor = root.join("vendor");
    let Ok(entries) = std::fs::read_dir(&vendor) else {
        return Vec::new();
    };
    let mut shims: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    shims.sort();
    let mut out = Vec::new();
    for shim in shims {
        let mut files = Vec::new();
        let mut stack = vec![shim.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    files.push(path);
                }
            }
        }
        files.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for file in &files {
            let rel = file
                .strip_prefix(&vendor)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            h = fnv1a64(h, rel.as_bytes());
            if let Ok(bytes) = std::fs::read(file) {
                h = fnv1a64(h, &bytes);
            }
        }
        let name = shim
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.push((name, format!("{h:016x}")));
    }
    out
}

/// Render shim hashes in manifest form (`<name> <hex>` per line).
/// `scale-lint --vendor-manifest` prints this; redirect it over
/// [`VENDOR_MANIFEST`] after an *intentional* shim update.
pub fn render_vendor_manifest(hashes: &[(String, String)]) -> String {
    let mut out = String::from(
        "# Checksums of the vendored shims (FNV-1a 64 over sorted file paths + contents).\n\
         # Regenerate after an intentional shim change:\n\
         #   cargo run -p scale-lint -- --vendor-manifest > crates/lint/vendor-manifest.txt\n",
    );
    for (name, hex) in hashes {
        out.push_str(&format!("{name} {hex}\n"));
    }
    out
}

/// Compare a manifest text against freshly computed shim hashes. Pure,
/// so the self-test can exercise every failure mode without touching
/// the real tree. Violations point at the manifest file.
pub fn compare_vendor_manifest(manifest: &str, actual: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut expected = Vec::new();
    for (idx, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some(name), Some(hex)) => expected.push((idx + 1, name.to_string(), hex.to_string())),
            _ => out.push(Violation {
                path: VENDOR_MANIFEST.to_string(),
                line: idx + 1,
                rule: "vendor-drift",
                message: format!("malformed manifest line `{line}` (want `<shim> <hex>`)"),
            }),
        }
    }
    for (line, name, hex) in &expected {
        match actual.iter().find(|(n, _)| n == name) {
            None => out.push(Violation {
                path: VENDOR_MANIFEST.to_string(),
                line: *line,
                rule: "vendor-drift",
                message: format!("manifest lists shim `{name}` but vendor/{name} does not exist"),
            }),
            Some((_, got)) if got != hex => out.push(Violation {
                path: VENDOR_MANIFEST.to_string(),
                line: *line,
                rule: "vendor-drift",
                message: format!(
                    "vendor/{name} drifted from the manifest (recorded {hex}, actual {got}) — vendored shims are frozen; if the change is intentional, regenerate with `cargo run -p scale-lint -- --vendor-manifest`"
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, _) in actual {
        if !expected.iter().any(|(_, n, _)| n == name) {
            out.push(Violation {
                path: VENDOR_MANIFEST.to_string(),
                line: 1,
                rule: "vendor-drift",
                message: format!(
                    "vendor/{name} is not in the manifest — add it with `cargo run -p scale-lint -- --vendor-manifest`"
                ),
            });
        }
    }
    out
}

/// `vendor-drift`: the vendored shims must match the checked-in
/// checksum manifest, so an edit to `vendor/` (which the source lints
/// deliberately skip) cannot land silently.
pub fn check_vendor_drift(root: &Path) -> Vec<Violation> {
    let manifest_path = root.join(VENDOR_MANIFEST);
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) => {
            return vec![Violation {
                path: VENDOR_MANIFEST.to_string(),
                line: 1,
                rule: "vendor-drift",
                message: format!("cannot read vendor manifest: {e}"),
            }]
        }
    };
    compare_vendor_manifest(&manifest, &vendor_shim_hashes(root))
}

/// Collect every statically-registered metric name in the workspace
/// (names with `{..}` wildcards included) — the cross-check set the
/// runtime registry is audited against.
pub fn registered_metric_names(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for path in workspace_sources(root) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let scanned = scan::scan(&src);
        for (_, _, _, name) in rules::metric_registrations(&scanned) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names.sort();
    names
}

/// Does runtime metric name `concrete` match static pattern `pattern`
/// (which may contain `{..}` wildcards standing for one id segment)?
pub fn metric_pattern_matches(pattern: &str, concrete: &str) -> bool {
    if !pattern.contains('{') {
        return pattern == concrete;
    }
    // Split the pattern on wildcards and require the fragments to
    // appear in order, anchored at both ends.
    let mut fragments = Vec::new();
    let mut rest = pattern;
    while let Some(open) = rest.find('{') {
        fragments.push(&rest[..open]);
        match rest[open..].find('}') {
            Some(close) => rest = &rest[open + close + 1..],
            None => return false,
        }
    }
    fragments.push(rest);
    let mut pos = 0usize;
    for (i, frag) in fragments.iter().enumerate() {
        if frag.is_empty() {
            continue;
        }
        match concrete[pos..].find(frag) {
            Some(at) => {
                if i == 0 && at != 0 {
                    return false; // anchored start
                }
                pos += at + frag.len();
            }
            None => return false,
        }
    }
    // Anchored end: the last fragment must reach the end (unless the
    // pattern ends with a wildcard).
    pattern.ends_with('}') || concrete.ends_with(fragments.last().copied().unwrap_or(""))
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if is_workspace_root(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Render violations in `path:line: [rule] message` form.
pub fn report(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{}:{}: [{}] {}\n", v.path, v.line, v.rule, v.message));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_pattern_wildcards() {
        assert!(metric_pattern_matches("scale_mlb_vm{vm}_load", "scale_mlb_vm7_load"));
        assert!(metric_pattern_matches("scale_mlb_vm{vm}_load", "scale_mlb_vm255_load"));
        assert!(!metric_pattern_matches("scale_mlb_vm{vm}_load", "scale_mlb_vm7_loads"));
        assert!(!metric_pattern_matches("scale_mlb_vm{vm}_load", "scale_dc_vm7_load"));
        assert!(metric_pattern_matches("scale_dc_messages_total", "scale_dc_messages_total"));
        assert!(!metric_pattern_matches("scale_dc_messages_total", "scale_dc_messages"));
    }

    #[test]
    fn workspace_walk_skips_vendor_and_fixtures() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("in workspace");
        let files = workspace_sources(&root);
        assert!(!files.is_empty());
        for f in &files {
            let p = f.to_string_lossy();
            assert!(!p.contains("/vendor/"), "vendored file scanned: {p}");
            assert!(!p.contains("/fixtures/"), "fixture scanned: {p}");
            assert!(!p.contains("/target/"), "build output scanned: {p}");
        }
    }

    /// A directory below the root with its own `[workspace]` manifest is
    /// another package tree; a plain member crate beside it is walked.
    #[test]
    fn workspace_walk_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("scale-lint-nested-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (dir, manifest) in [
            ("", "[workspace]\nmembers = [\"member\"]\n"),
            ("member", "[package]\nname = \"member\"\n"),
            ("nested", "[package]\nname = \"nested\"\n\n[workspace]\n"),
        ] {
            let src = root.join(dir).join("src");
            std::fs::create_dir_all(&src).unwrap();
            std::fs::write(root.join(dir).join("Cargo.toml"), manifest).unwrap();
            std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").unwrap();
        }
        let files = workspace_sources(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let rel: Vec<_> = files
            .iter()
            .map(|f| f.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/"))
            .collect();
        assert_eq!(rel, ["member/src/lib.rs", "src/lib.rs"]);
    }
}
