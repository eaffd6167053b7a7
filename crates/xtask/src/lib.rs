//! Source-level repo lints and the offline proof checker runner, in the
//! `cargo xtask` tradition (a workspace binary instead of an external
//! tool — nothing to install, versioned with the code it checks).
//!
//! `cargo run -p xtask -- lint` walks the workspace sources and enforces
//! four rules that `rustc`/`clippy` cannot express:
//!
//! * **`std-sync`** — `std::sync::{Mutex, Condvar, OnceLock, RwLock}`,
//!   `std::thread::spawn` and `std::thread::scope` are forbidden outside
//!   `crates/conc`: every
//!   concurrent component must build on the `conc` abstraction layer so
//!   the model checker can explore it (`conc` deliberately offers no scoped
//!   threads, so every thread is a model-checkable `conc::thread::spawn`). (Atomics are allowed — they pass
//!   through `conc::atomic` by convention, but a raw atomic cannot hide a
//!   blocking protocol from the checker.)
//! * **`wall-clock`** — `Instant::now` / `SystemTime` are forbidden
//!   outside the solver budget's wall-clock path and bench code: the
//!   bit-identity contract (PR 4/7) requires that no sampling decision
//!   ever branches on real time.
//! * **`no-unwrap`** — `.unwrap()` / `.expect(` are forbidden in library
//!   code (test modules, `tests/`, and binaries are exempt): library
//!   errors must flow through the typed error enums.
//! * **`allow-justify`** — `#[allow(…)]` attributes in library code must
//!   carry a trailing `// lint: <why>` justification: a lint opt-out with
//!   no recorded reason is indistinguishable from a shortcut.
//! * **`ffi-confined`** — `unsafe` and `extern "C"` are forbidden in
//!   every linted file, library, test and binary alike: the workspace has
//!   no FFI, every library crate carries `#![forbid(unsafe_code)]`, and
//!   this rule extends the ban to the test and binary sources the
//!   attribute does not reach.
//!
//! Pre-existing violations are grandfathered in the repo-root
//! `lint-allow.txt` (format: `<rule> <path>` per line, `#` comments).
//! The allowlist is debt, not license — new files should not be added —
//! and it must stay *live* debt: an entry whose `(rule, path)` no longer
//! matches any violation is itself reported (as `stale-allow`, which
//! cannot be allowlisted), so paid-down debt leaves the list the same PR
//! that pays it.
//!
//! `cargo run -p xtask -- certify <formula.cnf> <proof.bin>` re-checks a
//! dumped enumeration proof stream (`unigen_cli --proof-dump`) against its
//! DIMACS formula using the independent `unigen-cert` checker. The DIMACS
//! parser here is deliberately its own few lines (clause lines plus
//! CryptoMiniSAT-style `x` xor lines) rather than a `unigen-cnf` import,
//! keeping the offline verification path free of the solver stack it
//! audits.
//!
//! The scanner is deliberately line-based (no syn, no parsing): it strips
//! `//` comments, skips `#[cfg(test)]` modules by brace counting, and
//! matches substrings. That misses pathological encodings (a forbidden
//! path split across lines) and that is fine — the lint exists to catch
//! honest drift, and the real enforcement for the sync layer is that
//! model-checked tests only exercise `conc` types.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules, in the order they are applied.
pub const RULES: [&str; 5] = [
    "std-sync",
    "wall-clock",
    "no-unwrap",
    "allow-justify",
    "ffi-confined",
];

/// A single lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.text
        )
    }
}

/// Entry point for the `xtask` binary. Returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    match args.next().as_deref() {
        Some("lint") => match lint_workspace() {
            Ok(violations) => {
                if violations.is_empty() {
                    println!("xtask lint: clean");
                    0
                } else {
                    for v in &violations {
                        println!("{v}");
                    }
                    println!(
                        "xtask lint: {} violation(s); fix them or (for pre-existing debt only) \
                         add `<rule> <path>` to lint-allow.txt",
                        violations.len()
                    );
                    1
                }
            }
            Err(e) => {
                eprintln!("xtask lint: error: {e}");
                2
            }
        },
        Some("certify") => match (args.next(), args.next(), args.next()) {
            (Some(cnf), Some(proof), None) => match certify(Path::new(&cnf), Path::new(&proof)) {
                Ok(summary) => {
                    println!("xtask certify: {summary}");
                    0
                }
                Err(e) => {
                    eprintln!("xtask certify: REJECTED: {e}");
                    1
                }
            },
            _ => {
                eprintln!("usage: cargo run -p xtask -- certify <formula.cnf> <proof.bin>");
                2
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | certify <formula.cnf> <proof.bin>>");
            2
        }
    }
}

/// Offline certification: parses `cnf` (DIMACS, with CryptoMiniSAT-style
/// `x` xor lines), checks `proof` against it with the independent
/// `unigen-cert` checker, and requires every cell certificate complete.
/// Returns a human-readable summary of what was verified.
pub fn certify(cnf: &Path, proof: &Path) -> Result<String, String> {
    let text =
        std::fs::read_to_string(cnf).map_err(|e| format!("reading {}: {e}", cnf.display()))?;
    let formula = parse_dimacs(&text)?;
    let bytes = std::fs::read(proof).map_err(|e| format!("reading {}: {e}", proof.display()))?;
    let report = unigen_cert::Checker::check(&formula, &bytes).map_err(|e| e.to_string())?;
    report.require_complete().map_err(|e| e.to_string())?;
    let exhausted = report.cells.iter().filter(|c| c.exhaustive()).count();
    let witnesses: usize = report.cells.iter().map(|c| c.witnesses.len()).sum();
    Ok(format!(
        "{} steps over {} bytes verified; {} cell(s) ({} exhausted, {} witnesses){}",
        report.steps,
        report.bytes,
        report.cells.len(),
        exhausted,
        witnesses,
        if report.refuted {
            "; final database refuted"
        } else {
            ""
        }
    ))
}

/// A minimal DIMACS reader producing the checker's formula view: `c`
/// comments, one `p cnf <vars> <clauses>` line, `0`-terminated clause
/// lines, and `x` xor lines where each negated literal flips the parity
/// (rhs starts at `true`). Counts in the problem line are advisory, as in
/// the real parsers this mirrors.
fn parse_dimacs(text: &str) -> Result<unigen_cert::Formula, String> {
    let mut formula: Option<unigen_cert::Formula> = None;
    let mut num_vars = 0u64;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |message: String| format!("line {}: {message}", no + 1);
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if formula.is_some() {
                return Err(err("duplicate problem line".to_string()));
            }
            let mut tokens = rest.split_whitespace();
            if tokens.next() != Some("cnf") {
                return Err(err("expected `p cnf <vars> <clauses>`".to_string()));
            }
            let vars: usize = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("missing or invalid variable count".to_string()))?;
            num_vars = vars as u64;
            formula = Some(unigen_cert::Formula::new(vars));
            continue;
        }
        let Some(formula) = formula.as_mut() else {
            return Err(err("clause before the `p cnf` problem line".to_string()));
        };
        let (is_xor, body) = match line.strip_prefix('x') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits: Vec<i64> = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| err(format!("invalid literal `{token}`")))?;
            if value == 0 {
                terminated = true;
                break;
            }
            if value.unsigned_abs() > num_vars {
                return Err(err(format!("literal {value} out of range")));
            }
            lits.push(value);
        }
        if !terminated {
            return Err(err("clause is not terminated by 0".to_string()));
        }
        if is_xor {
            let mut rhs = true;
            let vars: Vec<u64> = lits
                .iter()
                .map(|&v| {
                    if v < 0 {
                        rhs = !rhs;
                    }
                    v.unsigned_abs()
                })
                .collect();
            formula.add_xor(&vars, rhs);
        } else {
            formula.add_clause(&lits);
        }
    }
    formula.ok_or_else(|| "missing `p cnf` problem line".to_string())
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when run via
/// cargo, the current directory otherwise.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
                .unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

/// Lints every tracked source tree under the workspace root and filters
/// the result through `lint-allow.txt`.
pub fn lint_workspace() -> Result<Vec<Violation>, String> {
    let root = workspace_root();
    let allow_path = root.join("lint-allow.txt");
    lint_tree(&root, &allow_path)
}

/// The full lint pass over one tree: walk, lint, filter through the
/// allowlist at `allow_path`, and report **stale** allowlist entries — a
/// `(rule, path)` that suppressed nothing is paid-down debt that must
/// leave the list. Stale entries surface as `stale-allow` violations,
/// which is not an allowlistable rule: staleness cannot grandfather
/// itself. Split from [`lint_workspace`] so the self-tests can run the
/// exact production pass over a synthetic tree.
fn lint_tree(root: &Path, allow_path: &Path) -> Result<Vec<Violation>, String> {
    let allow = load_allowlist(allow_path)?;
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut violations = Vec::new();
    let mut used: BTreeSet<(String, String)> = BTreeSet::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        for v in lint_source(&rel, &content) {
            let key = (v.rule.to_string(), v.path.clone());
            if allow.contains_key(&key) {
                used.insert(key);
            } else {
                violations.push(v);
            }
        }
    }
    for ((rule, path), line) in &allow {
        if !used.contains(&(rule.clone(), path.clone())) {
            violations.push(Violation {
                rule: "stale-allow",
                path: "lint-allow.txt".to_string(),
                line: *line,
                text: format!("`{rule} {path}` no longer matches any violation — remove the entry"),
            });
        }
    }
    Ok(violations)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parses `lint-allow.txt`: one `<rule> <path>` pair per line, mapped to
/// the 1-based line it was declared on (for stale-entry reports).
fn load_allowlist(path: &Path) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut allow = BTreeMap::new();
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(allow),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    for (no, line) in content.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), None) if RULES.contains(&rule) => {
                allow.insert((rule.to_string(), path.to_string()), no + 1);
            }
            _ => {
                return Err(format!(
                    "lint-allow.txt:{}: expected `<rule> <path>` with rule in {RULES:?}",
                    no + 1
                ));
            }
        }
    }
    Ok(allow)
}

/// Which rules apply to a workspace-relative path. The infrastructure
/// crates are exempt wholesale: `crates/conc` *is* the sanctioned home of
/// raw `std::sync`, `crates/xtask` is the linter itself (its sources
/// contain every forbidden token as a pattern), and `vendor/` is
/// third-party stand-in code.
fn applicable_rules(path: &str) -> Vec<&'static str> {
    if path.starts_with("vendor/")
        || path.starts_with("crates/conc/")
        || path.starts_with("crates/xtask/")
    {
        return Vec::new();
    }
    // Every file (library, test, or binary) must stay FFI-free.
    let mut rules = vec!["std-sync", "ffi-confined"];
    let is_bench = path.starts_with("crates/bench/") || path.contains("/benches/");
    if !is_bench {
        rules.push("wall-clock");
    }
    // Library code only: crate and root `src/` trees, minus binaries.
    let in_lib = (path.contains("/src/") || path.starts_with("src/"))
        && !path.ends_with("/main.rs")
        && !path.contains("/bin/");
    if in_lib && !is_bench {
        rules.push("no-unwrap");
        rules.push("allow-justify");
    }
    rules
}

/// Lints one file's contents. Exposed (rather than only the directory
/// walk) so the self-tests can feed synthetic sources through the exact
/// production code path.
pub fn lint_source(path: &str, content: &str) -> Vec<Violation> {
    let rules = applicable_rules(path);
    if rules.is_empty() {
        return Vec::new();
    }
    let mut violations = Vec::new();
    // Brace-counted skip state for `#[cfg(test)] mod …` blocks.
    let mut pending_cfg_test = false;
    let mut skip_depth: Option<i64> = None;
    for (idx, raw) in content.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or("").trim_end();
        let trimmed = code.trim_start();
        if let Some(depth) = skip_depth.as_mut() {
            *depth += brace_delta(code);
            if *depth <= 0 {
                skip_depth = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") || trimmed.is_empty() {
                // Further attributes between the cfg and the item.
                continue;
            }
            pending_cfg_test = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                let depth = brace_delta(code);
                if depth > 0 {
                    skip_depth = Some(depth);
                }
                // `mod foo;` (depth 0) refers to a file that is linted —
                // or rather skipped — on its own merits.
                continue;
            }
            // `#[cfg(test)]` on a non-module item (helper fn, import):
            // test-only too, but without braces tracked we only skip the
            // single item line. Good enough for this codebase's idiom.
            continue;
        }
        for rule in &rules {
            if let Some(hit) = match_rule(rule, trimmed, raw) {
                violations.push(Violation {
                    rule,
                    path: path.to_string(),
                    line: idx + 1,
                    text: hit,
                });
            }
        }
    }
    violations
}

fn brace_delta(code: &str) -> i64 {
    let mut delta = 0;
    for c in code.chars() {
        match c {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// The blocking `std::sync` types the `std-sync` rule keeps inside
/// `crates/conc`.
const SYNC_PRIMITIVES: [&str; 4] = ["Mutex", "Condvar", "OnceLock", "RwLock"];

/// Matches one rule against a line: `code` is the comment-stripped view
/// most rules scan, `raw` the original line — `allow-justify` needs the
/// comment back, because the justification *is* a comment.
fn match_rule(rule: &str, code: &str, raw: &str) -> Option<String> {
    let hit =
        |needle: &str| -> Option<String> { code.contains(needle).then(|| code.trim().to_string()) };
    match rule {
        "allow-justify" => {
            if (code.contains("#[allow(") || code.contains("#![allow("))
                && !raw
                    .split_once("//")
                    .is_some_and(|(_, comment)| comment.trim_start().starts_with("lint:"))
            {
                return Some(code.trim().to_string());
            }
            None
        }
        "std-sync" => {
            if code.starts_with("use std::sync")
                && SYNC_PRIMITIVES.iter().any(|name| code.contains(name))
            {
                return Some(code.trim().to_string());
            }
            if code.starts_with("use std::thread")
                && (code.contains("spawn") || code.contains("scope"))
            {
                return Some(code.trim().to_string());
            }
            SYNC_PRIMITIVES
                .iter()
                .find_map(|name| hit(&format!("std::sync::{name}")))
                .or_else(|| hit("std::thread::spawn"))
                .or_else(|| hit("std::thread::scope"))
        }
        "wall-clock" => hit("Instant::now").or_else(|| hit("SystemTime")),
        "no-unwrap" => hit(".unwrap()").or_else(|| hit(".expect(")),
        "ffi-confined" => {
            // `unsafe_code` is the *ban* on unsafe (`#![forbid(unsafe_code)]`),
            // not a use of it.
            if code.contains("unsafe") && !code.contains("unsafe_code") {
                return Some(code.trim().to_string());
            }
            hit("extern \"C\"")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_std_sync_in_library_code() {
        let src = "use std::sync::{Arc, Mutex};\nfn f() { let _ = std::sync::Condvar::new(); }\n";
        let v = lint_source("crates/core/src/service.rs", src);
        assert_eq!(rules_of(&v), vec!["std-sync", "std-sync"]);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn flags_std_once_lock_and_rw_lock_outside_conc() {
        let src = "use std::sync::{Arc, OnceLock};\nstatic S: std::sync::RwLock<u8> = todo();\n\
                   use std::sync::RwLock;\nfn f() { let _ = std::sync::OnceLock::<u8>::new(); }\n";
        let v = lint_source("crates/core/src/unigen.rs", src);
        assert_eq!(rules_of(&v), vec!["std-sync"; 4]);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert!(lint_source("crates/conc/src/sync.rs", src).is_empty());
        // `Arc` and `PoisonError` are not blocking primitives.
        let clean = "use std::sync::{Arc, PoisonError};\n";
        assert!(lint_source("crates/core/src/unigen.rs", clean).is_empty());
    }

    #[test]
    fn flags_std_thread_spawn_but_not_conc_spawn() {
        let src = "fn f() { std::thread::spawn(|| {}); conc::thread::spawn(|| {}); }\n";
        let v = lint_source("crates/core/src/service.rs", src);
        assert_eq!(rules_of(&v), vec!["std-sync"]);
        let clean = lint_source(
            "crates/core/src/service.rs",
            "fn f() { conc::thread::spawn(|| {}); }\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn flags_std_thread_scope_outside_conc() {
        let src =
            "use std::thread::scope;\nfn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let v = lint_source("crates/core/src/service.rs", src);
        assert_eq!(rules_of(&v), vec!["std-sync", "std-sync"]);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        assert!(lint_source("crates/conc/src/thread.rs", src).is_empty());
    }

    #[test]
    fn conc_xtask_and_vendor_are_exempt() {
        let src = "use std::sync::Mutex;\nfn f() { x.unwrap(); Instant::now(); }\n";
        assert!(lint_source("crates/conc/src/rt.rs", src).is_empty());
        assert!(lint_source("crates/xtask/src/lib.rs", src).is_empty());
        assert!(lint_source("vendor/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn flags_unsafe_and_extern_c_outside_the_syscall_shim() {
        let src =
            "fn f() { unsafe { libc_call() }; }\nextern \"C\" { fn close(fd: i32) -> i32; }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/service.rs", src)),
            vec!["ffi-confined", "ffi-confined"]
        );
        // Tests and binaries are covered too: FFI is confined, not
        // merely discouraged in library code.
        assert_eq!(
            rules_of(&lint_source("crates/net/tests/model_conn.rs", src)),
            vec!["ffi-confined", "ffi-confined"]
        );
        // No file is exempt, whatever its path.
        assert_eq!(
            rules_of(&lint_source("crates/net/src/sys.rs", src)),
            vec!["ffi-confined", "ffi-confined"]
        );
        // The *ban* on unsafe is not a use of it.
        let forbid = "#![forbid(unsafe_code)]\n";
        assert!(lint_source("crates/core/src/lib.rs", forbid).is_empty());
    }

    #[test]
    fn flags_wall_clock_outside_bench() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/unigen.rs", src)),
            vec!["wall-clock"]
        );
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/core/benches/speed.rs", src).is_empty());
    }

    #[test]
    fn flags_unwrap_in_lib_but_not_tests_or_bins() {
        let src = "fn f() { x.unwrap(); }\nfn g() { y.expect(\"boom\"); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/sampler.rs", src)),
            vec!["no-unwrap", "no-unwrap"]
        );
        assert!(lint_source("crates/core/tests/service.rs", src).is_empty());
        assert!(lint_source("crates/core/src/main.rs", src).is_empty());
        assert!(lint_source("crates/core/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }\n";
        assert!(lint_source("crates/core/src/sampler.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped_by_brace_counting() {
        let src = "\
fn lib() {}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn t() {
        let x = Some(1).unwrap();
        let _ = Instant::now();
        let _ = (x, Mutex::new(()));
    }
}

fn after() { tail.unwrap(); }
";
        let v = lint_source("crates/core/src/service.rs", src);
        assert_eq!(rules_of(&v), vec!["no-unwrap"]);
        assert_eq!(v[0].line, 15, "the post-module line is still linted: {v:?}");
    }

    #[test]
    fn comments_are_stripped() {
        let src = "// std::sync::Mutex is forbidden\nfn f() {} // x.unwrap()\n";
        assert!(lint_source("crates/core/src/service.rs", src).is_empty());
    }

    #[test]
    fn allowlist_parses_and_rejects_junk() {
        let dir = std::env::temp_dir().join(format!("xtask-allow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, "# debt\nno-unwrap crates/core/src/support.rs\n").unwrap();
        let allow = load_allowlist(&good).unwrap();
        assert_eq!(
            allow.get(&(
                "no-unwrap".to_string(),
                "crates/core/src/support.rs".to_string()
            )),
            Some(&2),
            "entries carry their declaration line"
        );
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "not-a-rule crates/core/src/support.rs\n").unwrap();
        assert!(load_allowlist(&bad).is_err());
        let missing = load_allowlist(&dir.join("absent.txt")).unwrap();
        assert!(missing.is_empty());
    }

    #[test]
    fn flags_unjustified_allow_in_lib_only() {
        let src = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        let v = lint_source("crates/core/src/sampler.rs", src);
        assert_eq!(rules_of(&v), vec!["allow-justify"]);
        assert_eq!(v[0].line, 1);
        // A trailing `// lint:` justification satisfies the rule.
        let justified =
            "#[allow(clippy::too_many_arguments)] // lint: mirrors the paper's signature\nfn f() {}\n";
        assert!(lint_source("crates/core/src/sampler.rs", justified).is_empty());
        // Tests, binaries and bench code are out of scope.
        assert!(lint_source("crates/core/tests/service.rs", src).is_empty());
        assert!(lint_source("crates/core/src/bin/tool.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
        // Inner attributes are covered too.
        let inner = "#![allow(dead_code)]\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/sampler.rs", inner)),
            vec!["allow-justify"]
        );
    }

    /// End-to-end stale-entry self-test: a synthetic tree with one real
    /// violation, an allowlist entry covering it (live), and one covering
    /// nothing (stale) — run through the exact production pass.
    #[test]
    fn stale_allowlist_entries_are_violations() {
        let root = std::env::temp_dir().join(format!("xtask-stale-{}", std::process::id()));
        let src_dir = root.join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join("lib.rs"), "fn f() { x.unwrap(); }\n").unwrap();
        let allow = root.join("allow.txt");
        std::fs::write(
            &allow,
            "no-unwrap src/lib.rs\nwall-clock src/lib.rs # nothing to suppress\n",
        )
        .unwrap();
        let violations = lint_tree(&root, &allow).unwrap();
        assert_eq!(rules_of(&violations), vec!["stale-allow"], "{violations:?}");
        assert_eq!(violations[0].line, 2, "points at the stale entry's line");
        assert!(violations[0].text.contains("wall-clock src/lib.rs"));
        // Removing the stale entry makes the pass clean.
        std::fs::write(&allow, "no-unwrap src/lib.rs\n").unwrap();
        assert!(lint_tree(&root, &allow).unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn certify_round_trips_a_dimacs_formula() {
        let f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\nx1 2 0\n").unwrap();
        assert_eq!((f.num_vars(), f.num_clauses(), f.num_xors()), (3, 1, 1));
        // Negated xor literals flip the parity.
        let g = parse_dimacs("p cnf 2 1\nx-1 2 0\n").unwrap();
        assert_eq!(g.num_xors(), 1);
        assert!(parse_dimacs("1 2 0\n").is_err(), "clause before p-line");
        assert!(parse_dimacs("p cnf 1 1\n2 0\n").is_err(), "out of range");
        assert!(parse_dimacs("p cnf 1 1\n1\n").is_err(), "unterminated");
    }

    /// The real tree must be clean — this is the same check CI runs, kept
    /// as a unit test so `cargo test` alone catches drift.
    #[test]
    fn workspace_is_clean() {
        let violations = lint_workspace().expect("lint walk failed");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
