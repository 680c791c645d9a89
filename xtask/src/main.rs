//! Workspace automation tasks.
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! `lint` is a token-level source gate (no rustc, no new dependencies) that
//! enforces two workspace rules:
//!
//! 1. **No `unwrap()` / `expect()` / `panic!` in non-test library code.**
//!    Test modules (`#[cfg(test)]`) are exempt; deliberate uses in library
//!    code (mutex-poisoning propagation, proven-unreachable states) must be
//!    listed in `xtask/lint-allow.txt` — the allowlist is the audit trail.
//! 2. **No imports of non-vendored crates.** Every `Cargo.toml` dependency
//!    must be a workspace crate or one of the offline stand-ins under
//!    `vendor/`; anything else would need registry access the build
//!    environment does not have.
//!
//! Stale allowlist entries are themselves lint errors, so the file can only
//! shrink as violations are fixed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The offline stand-in crates under `vendor/`.
const VENDORED: &[&str] = &[
    "serde",
    "serde_derive",
    "rand",
    "crossbeam-channel",
    "proptest",
    "criterion",
    "flate2",
];

/// Tokens rule 1 forbids in non-test library code.
const FORBIDDEN: &[&str] = &["unwrap", "expect", "panic"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// One `path token` allowlist entry from `xtask/lint-allow.txt`.
struct Allow {
    path: String,
    token: String,
    used: bool,
}

fn load_allowlist(root: &Path, problems: &mut Vec<String>) -> Vec<Allow> {
    let path = root.join("xtask/lint-allow.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(p), Some(t), None) if FORBIDDEN.contains(&t) => entries.push(Allow {
                path: p.to_string(),
                token: t.to_string(),
                used: false,
            }),
            _ => problems.push(format!(
                "xtask/lint-allow.txt:{}: malformed entry `{line}` \
                 (want `<path> <unwrap|expect|panic>`)",
                lineno + 1
            )),
        }
    }
    entries
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut problems = Vec::new();
    let mut allows = load_allowlist(&root, &mut problems);

    let mut library_files = Vec::new();
    for krate in list_dir(&root.join("crates")) {
        collect_rs(&krate.join("src"), &mut library_files);
    }
    for file in &library_files {
        lint_source(&root, file, &mut allows, &mut problems);
    }
    lint_manifests(&root, &mut problems);

    for allow in &allows {
        if !allow.used {
            problems.push(format!(
                "xtask/lint-allow.txt: stale entry `{} {}` matches nothing — remove it",
                allow.path, allow.token
            ));
        }
    }

    if problems.is_empty() {
        println!(
            "lint: {} library files, all manifests clean",
            library_files.len()
        );
        ExitCode::SUCCESS
    } else {
        problems.sort();
        for p in &problems {
            eprintln!("lint: {p}");
        }
        eprintln!("lint: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

fn list_dir(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            out.push(entry.path());
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in list_dir(dir) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints one library source file against rule 1 (the forbidden-token scan).
fn lint_source(root: &Path, path: &Path, allows: &mut [Allow], problems: &mut Vec<String>) {
    let rel_path = rel(root, path);
    let Ok(source) = std::fs::read_to_string(path) else {
        problems.push(format!("{rel_path}: unreadable"));
        return;
    };
    let mut masked = mask_comments_and_strings(&source);
    mask_test_modules(&mut masked);
    let masked: String = masked.into_iter().collect();

    let mut allowed = |token: &str| -> bool {
        let mut hit = false;
        for allow in allows.iter_mut() {
            if allow.path == rel_path && allow.token == token {
                allow.used = true;
                hit = true;
            }
        }
        hit
    };

    for &token in FORBIDDEN {
        let lines = forbidden_token_lines(&masked, token);
        if lines.is_empty() || allowed(token) {
            continue;
        }
        for line in lines {
            let spelled = match token {
                "panic" => "panic!".to_string(),
                other => format!(".{other}()"),
            };
            problems.push(format!(
                "{rel_path}:{line}: `{spelled}` in non-test library code \
                 (handle the error, or add `{rel_path} {token}` to xtask/lint-allow.txt)"
            ));
        }
    }
}

/// Rule 2: every dependency of every workspace manifest must be a workspace
/// crate or a vendored stand-in.
fn lint_manifests(root: &Path, problems: &mut Vec<String>) {
    let mut known: Vec<String> = VENDORED.iter().map(|s| s.to_string()).collect();
    let mut manifests = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for krate in list_dir(&root.join("crates")) {
        manifests.push(krate.join("Cargo.toml"));
    }
    // First pass: learn the workspace package names.
    for manifest in &manifests {
        let Ok(text) = std::fs::read_to_string(manifest) else {
            continue;
        };
        let mut in_package = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
            } else if in_package && line.starts_with("name") {
                if let Some(name) = line.split('"').nth(1) {
                    known.push(name.to_string());
                }
            }
        }
    }
    // Second pass: check every dependency section against the known set.
    for manifest in &manifests {
        let rel_path = rel(root, manifest);
        let Ok(text) = std::fs::read_to_string(manifest) else {
            problems.push(format!("{rel_path}: unreadable"));
            continue;
        };
        let mut in_deps = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_deps = matches!(
                    line,
                    "[dependencies]"
                        | "[dev-dependencies]"
                        | "[build-dependencies]"
                        | "[workspace.dependencies]"
                );
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(name) = line.split(['=', '.']).next().map(str::trim) else {
                continue;
            };
            if name.is_empty() {
                continue;
            }
            if !known.iter().any(|k| k == name) {
                problems.push(format!(
                    "{rel_path}:{}: dependency `{name}` is neither a workspace crate \
                     nor vendored under vendor/ — the offline build cannot resolve it",
                    lineno + 1
                ));
            }
        }
    }
}

/// Replaces the contents of comments, string literals and char literals with
/// spaces (newlines preserved), so token scans never match prose or text.
fn mask_comments_and_strings(source: &str) -> Vec<char> {
    let chars: Vec<char> = source.chars().collect();
    let mut out: Vec<char> = chars.clone();
    let n = chars.len();
    let mut i = 0;
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for c in out.iter_mut().take(to.min(n)).skip(from) {
            if *c != '\n' {
                *c = ' ';
            }
        }
    };
    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            let mut j = i;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            blank(&mut out, i, j);
            i = j;
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if c == 'r' && (next == Some('"') || next == Some('#')) {
            // Raw string: r"..." or r#"..."# with any number of hashes.
            let mut hashes = 0;
            let mut j = i + 1;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                j += 1;
                'raw: while j < n {
                    if chars[j] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                blank(&mut out, i, j);
                i = j;
            } else {
                i += 1;
            }
        } else if c == '"' {
            let mut j = i + 1;
            while j < n {
                if chars[j] == '\\' {
                    j += 2;
                } else if chars[j] == '"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if c == '\'' {
            // Char literal vs lifetime: a literal closes with a quote within
            // a couple of characters; a lifetime never closes.
            if next == Some('\\') {
                let mut j = i + 2;
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
                blank(&mut out, i, j + 1);
                i = j + 1;
            } else if chars.get(i + 2) == Some(&'\'') {
                blank(&mut out, i, i + 3);
                i += 3;
            } else {
                i += 1; // lifetime
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Blanks every `#[cfg(test)]`-gated item: the attribute plus either the
/// following brace-matched block (`mod tests { … }`) or, for out-of-line
/// declarations (`mod testutil;`), up to the terminating semicolon.
fn mask_test_modules(masked: &mut [char]) {
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let n = masked.len();
    let mut i = 0;
    while i + needle.len() <= n {
        if masked[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + needle.len();
        // Scan to the item body: the first `{` outside parens/brackets, or a
        // `;` that ends an out-of-line declaration first.
        let mut end = n;
        while j < n {
            match masked[j] {
                ';' => {
                    end = j + 1;
                    break;
                }
                '{' => {
                    let mut depth = 0;
                    while j < n {
                        match masked[j] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end = j;
                    break;
                }
                _ => j += 1,
            }
        }
        for c in masked.iter_mut().take(end).skip(start) {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// 1-indexed lines where `token` occurs as a forbidden call: `.unwrap()` /
/// `.expect(...)` (method position) or `panic!` (macro position).
fn forbidden_token_lines(masked: &str, token: &str) -> Vec<usize> {
    let chars: Vec<char> = masked.chars().collect();
    let tok: Vec<char> = token.chars().collect();
    let mut lines = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if i + tok.len() <= chars.len()
            && chars[i..i + tok.len()] == tok[..]
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars
                .get(i + tok.len())
                .map(|&c| !is_ident(c))
                .unwrap_or(true)
        {
            let hit = if token == "panic" {
                // Macro position: `panic` followed by `!`.
                next_non_ws(&chars, i + tok.len()) == Some('!')
            } else {
                // Method position: preceded by `.`.
                prev_non_ws(&chars, i) == Some('.')
            };
            if hit {
                lines.push(line);
            }
            i += tok.len();
        } else {
            i += 1;
        }
    }
    lines
}

fn next_non_ws(chars: &[char], mut i: usize) -> Option<char> {
    while i < chars.len() {
        if !chars[i].is_whitespace() {
            return Some(chars[i]);
        }
        i += 1;
    }
    None
}

fn prev_non_ws(chars: &[char], i: usize) -> Option<char> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !chars[j].is_whitespace() {
            return Some(chars[j]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(src: &str) -> String {
        let mut m = mask_comments_and_strings(src);
        mask_test_modules(&mut m);
        m.into_iter().collect()
    }

    #[test]
    fn strings_and_comments_are_masked() {
        let m = mask("let x = \"unwrap()\"; // .unwrap()\n/* panic! */ let y = 1;");
        assert!(forbidden_token_lines(&m, "unwrap").is_empty());
        assert!(forbidden_token_lines(&m, "panic").is_empty());
    }

    #[test]
    fn method_calls_are_flagged_but_totals_are_not() {
        let m = mask("a.unwrap();\nb.unwrap_or(0);\nc.expect(\"x\");\npanic!(\"y\");\nstd::panic::catch_unwind(f);");
        assert_eq!(forbidden_token_lines(&m, "unwrap"), vec![1]);
        assert_eq!(forbidden_token_lines(&m, "expect"), vec![3]);
        assert_eq!(forbidden_token_lines(&m, "panic"), vec![4]);
    }

    #[test]
    fn cfg_test_blocks_and_declarations_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n#[cfg(test)]\nmod testutil;\n";
        let m = mask(src);
        assert!(forbidden_token_lines(&m, "unwrap").is_empty());
        assert!(!m.contains("testutil"));
    }

    #[test]
    fn raw_strings_and_char_literals_are_masked() {
        let m =
            mask("let s = r#\"a.unwrap()\"#; let c = '\"'; let l: &'static str = x; y.unwrap();");
        assert_eq!(forbidden_token_lines(&m, "unwrap").len(), 1);
    }
}
