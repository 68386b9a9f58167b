//! Guards on the lint configuration that `cargo test` can check without
//! clippy (DESIGN.md §10).
//!
//! * Every lint exception in library code is an `#[expect(..., reason)]`
//!   attribute. Their count is pinned so a new one is a reviewed change;
//!   clippy itself rejects `#[allow]`, reason-less expectations and
//!   stale ones.
//! * `Cargo.lock` names no registry package, so no foreign RNG (`rand`,
//!   `getrandom`, ...) or other external crate can enter the workspace.

use std::path::Path;

/// `#[expect(` / `#![expect(` attributes in library sources: 13 proved
/// panic sites, the two module-level exemptions (`timing.rs`,
/// `supervisor.rs`) and the supervisor worker's argument count.
const PINNED_EXPECTS: usize = 16;

fn library_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            library_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn lint_exceptions_are_pinned_expectations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    library_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            library_sources(&src, &mut files);
        }
    }
    files.sort();
    let (mut expects, mut allows) = (Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_start();
            let at = format!("{}:{}", file.display(), i + 1);
            if line.starts_with("#[expect(") || line.starts_with("#![expect(") {
                expects.push(at);
            } else if line.starts_with("#[allow(") || line.starts_with("#![allow(") {
                allows.push(at);
            }
        }
    }
    assert!(
        allows.is_empty(),
        "use #[expect(..., reason = \"...\")]: {allows:#?}"
    );
    assert_eq!(
        expects.len(),
        PINNED_EXPECTS,
        "lint expectations changed; justify and re-pin: {expects:#?}"
    );
}

#[test]
fn lockfile_has_no_registry_packages() {
    let lock =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock")).unwrap();
    let foreign: Vec<&str> = lock.lines().filter(|l| l.starts_with("source =")).collect();
    assert!(
        foreign.is_empty(),
        "external packages in Cargo.lock: {foreign:?}"
    );
}
