//! Source-level lint rules for the dqec workspace.
//!
//! Self-contained by design (hand-rolled lexer, zero dependencies —
//! the build container has no registry access), and run as a blocking
//! CI gate via the `dqec-lint` binary. The rules encode invariants
//! that previously lived only in review comments:
//!
//! * **`unsafe-comment`** — every `unsafe` keyword must carry a
//!   `// SAFETY:` comment on the same or one of the three preceding
//!   lines.
//! * **`raw-sync`** — `std::thread::spawn` and `std::sync::atomic` are
//!   forbidden outside `vendor/rayon` and `crates/check`: concurrent
//!   code must go through the `dqec_check::sync` / `::thread` facade
//!   so the model checker can see it.
//! * **`unwrap`** — `.unwrap()` / `.expect(` in non-test library code
//!   is ratcheted: existing sites are counted in
//!   `lint-allowlist.tsv`, new ones are rejected, and shrinking a
//!   file's count below its allowance produces a ratchet warning.
//! * **`panic`** — `panic!` / `unreachable!` in non-test library code
//!   is ratcheted the same way.
//! * **`det-clock`** — `Instant::now` / `SystemTime::now` are
//!   forbidden in all library code: timestamps must flow through the
//!   `dqec_obs` clock facade (monotonic in production, virtual under
//!   `--cfg dqec_check`). Bench binaries, tests, and examples are
//!   exempt, as is `crates/obs` itself.
//! * **`det-hasher`** — default-hasher `HashMap`/`HashSet` in the
//!   deterministic crates is ratcheted like `unwrap` (iteration order
//!   must never leak into results; existing sites are allowlisted,
//!   new ones rejected).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose `src/` trees form the deterministic decode/sample path.
const DET_CRATES: [&str; 6] = [
    "crates/sim",
    "crates/matching",
    "crates/chiplet",
    "crates/core",
    "crates/estimator",
    "crates/sweep",
];

/// Directory prefixes exempt from the `raw-sync` rule: the facade
/// implementation itself, the shim it instruments, and the metrics
/// substrate (whose relaxed counters are deliberately invisible to the
/// model checker — instrumenting them would explode the schedule space
/// without changing any checked invariant).
const RAW_SYNC_EXEMPT: [&str; 3] = ["vendor/rayon", "crates/check", "crates/obs"];

/// Directory prefixes exempt from the `det-clock` rule: the clock
/// facade itself.
const CLOCK_EXEMPT: [&str; 1] = ["crates/obs"];

/// Name of the ratchet file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allowlist.tsv";

/// One lint violation (an error unless covered by the allowlist).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`unsafe-comment`, `raw-sync`, ...).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "error[{}]: {}:{}: {}",
                self.rule, self.path, self.line, self.message
            )
        } else {
            write!(f, "error[{}]: {}: {}", self.rule, self.path, self.message)
        }
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// A significant token: an identifier/number or a punctuation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token text (identifiers verbatim; punctuation one char each,
    /// except `::` which is kept as one token).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

/// Lexer output: the significant tokens plus every comment (for the
/// `SAFETY:` lookup).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub toks: Vec<Tok>,
    /// `(line, text)` of each comment, in source order. Multi-line
    /// block comments contribute one entry per line.
    pub comments: Vec<(usize, String)>,
}

/// Tokenizes Rust source, skipping (but recording) comments and
/// skipping string/char literals entirely. Handles nested block
/// comments, raw strings (`r#".."#`), byte strings, and the
/// char-literal vs lifetime ambiguity.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments
                    .push((line, String::from_utf8_lossy(&b[start..i]).into_owned()));
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut seg_start = i;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else if b[i] == b'\n' {
                        out.comments
                            .push((line, String::from_utf8_lossy(&b[seg_start..i]).into_owned()));
                        line += 1;
                        i += 1;
                        seg_start = i;
                    } else {
                        i += 1;
                    }
                }
                out.comments
                    .push((line, String::from_utf8_lossy(&b[seg_start..i]).into_owned()));
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                i = skip_raw_or_byte_string(b, i, &mut line);
            }
            b'\'' => {
                // Lifetime (`'a`) or char literal (`'x'`, `'\n'`).
                if is_lifetime(b, i) {
                    // Lifetimes are insignificant for our rules: skip
                    // the quote and let the ident lex as a token-free
                    // region (consume it here so `'static` does not
                    // produce a bare `static` token).
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                } else {
                    i = skip_char_literal(b, i, &mut line);
                }
            }
            b':' if i + 1 < b.len() && b[i + 1] == b':' => {
                out.toks.push(Tok {
                    text: "::".to_string(),
                    line,
                });
                i += 2;
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.toks.push(Tok {
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal (incl. suffixes/underscores/hex).
                while i < b.len() && (b[i] == b'_' || b[i] == b'.' || b[i].is_ascii_alphanumeric())
                {
                    // Stop a range like `0..n` from being eaten.
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    text: "0".to_string(),
                    line,
                });
            }
            _ => {
                out.toks.push(Tok {
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    // r"  r#"  br"  br#"  b"
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") || rest.starts_with(b"b\"") {
        return true;
    }
    rest.starts_with(b"br\"") || rest.starts_with(b"br#")
}

fn skip_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        // Plain byte string: same escaping rules as a normal string.
        return skip_string(b, i, line);
    }
    // Raw string: r##"..."## with zero or more hashes.
    i += 1; // the 'r'
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return i; // `r#ident` raw identifier, not a string
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn is_lifetime(b: &[u8], i: usize) -> bool {
    // 'x' / '\n' are char literals; 'a (no closing quote after one
    // identifier-ish char) is a lifetime. `'_'` is a char literal of
    // underscore only when followed by a quote.
    let mut j = i + 1;
    if j < b.len() && b[j] == b'\\' {
        return false;
    }
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    !(j < b.len() && b[j] == b'\'' && j > i + 1)
}

fn skip_char_literal(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------------
// Test-region exclusion
// ---------------------------------------------------------------------

/// Marks which tokens sit inside `#[cfg(test)]` / `#[test]` items (the
/// attribute, then the next braced block), so "library code" rules can
/// skip them.
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            // Scan the attribute to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test {
                // Exclude through the end of the following braced item.
                let mut k = j;
                while k < toks.len() && toks[k].text != "{" {
                    // An item ending in `;` before any brace (e.g.
                    // `#[cfg(test)] use ...;`) excludes only itself.
                    if toks[k].text == ";" {
                        break;
                    }
                    k += 1;
                }
                if k < toks.len() && toks[k].text == "{" {
                    let mut bd = 1usize;
                    let mut m = k + 1;
                    while m < toks.len() && bd > 0 {
                        match toks[m].text.as_str() {
                            "{" => bd += 1,
                            "}" => bd -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    for slot in in_test.iter_mut().take(m).skip(i) {
                        *slot = true;
                    }
                    i = m;
                    continue;
                } else {
                    for slot in in_test.iter_mut().take(k + 1).skip(i) {
                        *slot = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn seq_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    toks.len() - i >= pat.len() && pat.iter().enumerate().all(|(k, p)| toks[i + k].text == *p)
}

/// File classification derived from its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Non-test library code: under a `src/` tree, excluding `src/bin`.
    pub library: bool,
    /// Part of the deterministic decode/sample path.
    pub det: bool,
    /// Exempt from the `raw-sync` rule.
    pub raw_sync_exempt: bool,
    /// Exempt from the `det-clock` rule.
    pub clock_exempt: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let in_src = (rel.starts_with("src/") || rel.contains("/src/")) && !rel.contains("/bin/");
    let non_test =
        !rel.contains("/tests/") && !rel.contains("/benches/") && !rel.contains("/examples/");
    FileClass {
        library: in_src && non_test,
        det: DET_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("{c}/src"))),
        raw_sync_exempt: RAW_SYNC_EXEMPT.iter().any(|c| rel.starts_with(c)),
        clock_exempt: CLOCK_EXEMPT.iter().any(|c| rel.starts_with(c)),
    }
}

/// Per-file counts feeding the ratchet (`(rule, count)`).
pub type RatchetCounts = Vec<(&'static str, usize)>;

/// Scans one source file; returns hard findings plus ratcheted counts.
pub fn scan_source(rel: &str, src: &str, class: FileClass) -> (Vec<Finding>, RatchetCounts) {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let in_test = test_regions(toks);
    let mut findings = Vec::new();
    let mut unwraps = 0usize;
    let mut panics = 0usize;
    let mut hashers = 0usize;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "unsafe" => {
                // `unsafe` needs a SAFETY comment within 3 lines above
                // (or on the same line). Applies everywhere, tests
                // included — a test's unsafe is no safer.
                let lo = t.line.saturating_sub(3);
                let documented = lexed
                    .comments
                    .iter()
                    .any(|(l, c)| *l >= lo && *l <= t.line && c.contains("SAFETY:"));
                if !documented {
                    findings.push(Finding {
                        rule: "unsafe-comment",
                        path: rel.to_string(),
                        line: t.line,
                        message:
                            "`unsafe` without a `// SAFETY:` comment within the 3 preceding lines"
                                .to_string(),
                    });
                }
            }
            "std" if !class.raw_sync_exempt => {
                if seq_at(toks, i, &["std", "::", "thread", "::", "spawn"]) {
                    findings.push(Finding {
                        rule: "raw-sync",
                        path: rel.to_string(),
                        line: t.line,
                        message: "`std::thread::spawn` outside vendor/rayon + crates/check + crates/obs; use the dqec_check::thread facade".to_string(),
                    });
                } else if seq_at(toks, i, &["std", "::", "sync", "::", "atomic"]) {
                    findings.push(Finding {
                        rule: "raw-sync",
                        path: rel.to_string(),
                        line: t.line,
                        message: "raw `std::sync::atomic` outside vendor/rayon + crates/check + crates/obs; use the dqec_check::sync facade".to_string(),
                    });
                }
            }
            "unwrap" | "expect"
                if class.library
                    && !in_test[i]
                    && i > 0
                    && toks[i - 1].text == "."
                    && i + 1 < toks.len()
                    && toks[i + 1].text == "(" =>
            {
                unwraps += 1;
            }
            "panic" | "unreachable"
                if class.library
                    && !in_test[i]
                    && i + 1 < toks.len()
                    && toks[i + 1].text == "!" =>
            {
                panics += 1;
            }
            "Instant" | "SystemTime"
                if class.library
                    && !class.clock_exempt
                    && seq_at(toks, i, &[&t.text.clone(), "::", "now"])
                    && !in_test[i] =>
            {
                findings.push(Finding {
                    rule: "det-clock",
                    path: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "raw `{}::now` in library code; use the dqec_obs clock facade \
                         (obs::Clock::now_ns)",
                        t.text
                    ),
                });
            }
            "HashMap" | "HashSet" if class.det && class.library && !in_test[i] => {
                hashers += 1;
            }
            _ => {}
        }
        i += 1;
    }

    let mut counts = Vec::new();
    if unwraps > 0 {
        counts.push(("unwrap", unwraps));
    }
    if panics > 0 {
        counts.push(("panic", panics));
    }
    if hashers > 0 {
        counts.push(("det-hasher", hashers));
    }
    (findings, counts)
}

// ---------------------------------------------------------------------
// Allowlist (the ratchet)
// ---------------------------------------------------------------------

/// Parsed `lint-allowlist.tsv`: `(rule, path) → allowed count`.
pub type Allowlist = BTreeMap<(String, String), usize>;

/// Parses the TSV ratchet file (`rule<TAB>path<TAB>count`, `#` for
/// comments). Malformed lines are reported as findings against the
/// allowlist itself.
pub fn parse_allowlist(text: &str) -> (Allowlist, Vec<Finding>) {
    let mut list = Allowlist::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let entry = match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(count)) => {
                count.trim().parse::<usize>().ok().map(|c| (rule, path, c))
            }
            _ => None,
        };
        match entry {
            Some((rule, path, count)) => {
                list.insert((rule.to_string(), path.to_string()), count);
            }
            None => findings.push(Finding {
                rule: "allowlist",
                path: ALLOWLIST_FILE.to_string(),
                line: idx + 1,
                message: format!("malformed allowlist line: {line:?}"),
            }),
        }
    }
    (list, findings)
}

/// Renders an allowlist back to TSV (sorted, stable).
pub fn render_allowlist(counts: &Allowlist) -> String {
    let mut out = String::from(
        "# dqec-lint ratchet: allowed violation counts per file.\n\
         # rule<TAB>path<TAB>count. Counts may only go down; regenerate\n\
         # with `cargo run -p dqec-lint -- --workspace --write-allowlist`\n\
         # after genuinely removing sites (never to admit new ones).\n",
    );
    for ((rule, path), count) in counts {
        let _ = writeln!(out, "{rule}\t{path}\t{count}");
    }
    out
}

// ---------------------------------------------------------------------
// Workspace walk + driver
// ---------------------------------------------------------------------

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Result of a whole-workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard rule violations (always errors).
    pub errors: Vec<Finding>,
    /// Ratchet warnings (allowance above current count, stale entries).
    pub warnings: Vec<String>,
    /// Current measured counts, for `--write-allowlist`.
    pub counts: Allowlist,
    /// Total `.unwrap()`/`.expect(` sites in non-test library code.
    pub unwrap_total: usize,
    /// Files scanned.
    pub files: usize,
}

/// Scans every `.rs` file under the workspace root and applies the
/// rules plus the ratchet in `lint-allowlist.tsv`.
pub fn run_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    let mut files = Vec::new();
    for top in ["src", "crates", "vendor"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();

    let (allow, allow_findings) = match fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => (Allowlist::new(), Vec::new()),
    };
    report.errors.extend(allow_findings);

    for path in &files {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                report.warnings.push(format!("{rel}: unreadable ({e})"));
                continue;
            }
        };
        report.files += 1;
        let class = classify(&rel);
        let (findings, counts) = scan_source(&rel, &src, class);
        report.errors.extend(findings);
        for (rule, count) in counts {
            if rule == "unwrap" {
                report.unwrap_total += count;
            }
            report.counts.insert((rule.to_string(), rel.clone()), count);
            let allowed = allow
                .get(&(rule.to_string(), rel.clone()))
                .copied()
                .unwrap_or(0);
            if count > allowed {
                report.errors.push(Finding {
                    rule,
                    path: rel.clone(),
                    line: 0,
                    message: format!(
                        "{count} `{rule}` site(s), allowlist permits {allowed} — remove the new site(s); the ratchet only goes down"
                    ),
                });
            } else if count < allowed {
                report.warnings.push(format!(
                    "{rel}: {rule} count {count} is below its allowance {allowed}; ratchet down with --write-allowlist"
                ));
            }
        }
    }

    // Stale allowlist entries (file gone or now clean) are ratchet
    // warnings, not errors.
    for ((rule, path), allowed) in &allow {
        if *allowed > 0 && !report.counts.contains_key(&(rule.clone(), path.clone())) {
            report.warnings.push(format!(
                "{path}: allowlist permits {allowed} `{rule}` site(s) but none remain; ratchet down with --write-allowlist"
            ));
        }
    }
    report
}

/// CLI entry point for the `dqec-lint` binary.
pub fn cli(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut write_allowlist = false;
    let mut saw_workspace = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workspace" => saw_workspace = true,
            "--write-allowlist" => write_allowlist = true,
            "--root" => match iter.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("dqec-lint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("dqec-lint: unknown argument {other:?}");
                eprintln!("usage: dqec-lint --workspace [--root <dir>] [--write-allowlist]");
                return ExitCode::FAILURE;
            }
        }
    }
    if !saw_workspace {
        eprintln!("usage: dqec-lint --workspace [--root <dir>] [--write-allowlist]");
        return ExitCode::FAILURE;
    }

    let report = run_workspace(&root);
    if write_allowlist {
        let rendered = render_allowlist(&report.counts);
        if let Err(e) = fs::write(root.join(ALLOWLIST_FILE), rendered) {
            eprintln!("dqec-lint: cannot write {ALLOWLIST_FILE}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "dqec-lint: wrote {ALLOWLIST_FILE} ({} entries)",
            report.counts.len()
        );
    }
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    for f in &report.errors {
        eprintln!("{f}");
    }
    println!(
        "dqec-lint: {} files, {} library unwrap/expect sites, {} error(s), {} warning(s)",
        report.files,
        report.unwrap_total,
        report.errors.len(),
        report.warnings.len()
    );
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class() -> FileClass {
        classify("crates/sim/src/lib.rs")
    }

    #[test]
    fn lexer_skips_comments_strings_and_lifetimes() {
        let src = r###"
// a comment with .unwrap( inside
fn f<'a>(x: &'a str) -> char {
    let _s = "string .unwrap( literal";
    let _r = r#"raw .expect( literal"#;
    let c = 'x';
    /* block .unwrap( comment
       over lines */
    c
}
"###;
        let lexed = lex(src);
        assert!(lexed
            .toks
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "expect"));
        assert!(lexed.comments.iter().any(|(_, c)| c.contains("a comment")));
        assert!(lexed.toks.iter().any(|t| t.text == "char"));
    }

    #[test]
    fn unwrap_rule_counts_only_nontest_library_calls() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g(x: Option<u32>) -> u32 { x.expect("reason") }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u32).unwrap(); }
}
"#;
        let (findings, counts) = scan_source("crates/sim/src/lib.rs", src, lib_class());
        assert!(findings.is_empty());
        assert_eq!(counts, vec![("unwrap", 2)]);
    }

    #[test]
    fn panic_rule_counts_only_nontest_library_macros() {
        let src = r#"
fn f(x: u32) -> u32 { if x > 1 { panic!("too big: {x}") } else { x } }
fn g(x: u32) -> u32 { match x { 0 => 1, _ => unreachable!() } }
fn h() { let _ = std::panic::catch_unwind(|| ()); }
#[cfg(test)]
mod tests {
    #[test]
    #[should_panic]
    fn t() { panic!("in a test"); }
}
"#;
        let (findings, counts) = scan_source("crates/sim/src/lib.rs", src, lib_class());
        assert!(findings.is_empty());
        assert_eq!(counts, vec![("panic", 2)]);
        let bin = "crates/bench/src/bin/bench_serve.rs";
        let (_, counts) = scan_source(bin, src, classify(bin));
        assert!(counts.is_empty());
    }

    #[test]
    fn raw_sync_rule_flags_spawn_and_atomics_outside_exempt_dirs() {
        let src = "fn f() { std::thread::spawn(|| {}); }\nuse std::sync::atomic::AtomicUsize;\n";
        let (findings, _) = scan_source(
            "crates/sweep/src/pool.rs",
            src,
            classify("crates/sweep/src/pool.rs"),
        );
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "raw-sync"));
        let (findings, _) = scan_source(
            "vendor/rayon/src/lib.rs",
            src,
            classify("vendor/rayon/src/lib.rs"),
        );
        assert!(findings.is_empty());
        let (findings, _) = scan_source(
            "crates/check/src/sync.rs",
            src,
            classify("crates/check/src/sync.rs"),
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn unsafe_requires_nearby_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let (findings, _) = scan_source("crates/sim/src/lib.rs", bad, lib_class());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unsafe-comment");

        let good = "// SAFETY: provably unreachable, guarded above.\nfn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let (findings, _) = scan_source("crates/sim/src/lib.rs", good, lib_class());
        assert!(findings.is_empty());
    }

    #[test]
    fn det_rules_flag_clocks_and_count_hashers() {
        let src = "use std::collections::HashMap;\nfn f() { let _t = std::time::Instant::now(); let _m: HashMap<u32, u32> = HashMap::new(); }\n";
        let (findings, counts) = scan_source(
            "crates/matching/src/graph.rs",
            src,
            classify("crates/matching/src/graph.rs"),
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "det-clock");
        assert_eq!(counts, vec![("det-hasher", 3)]);
        // Outside the det crates the hasher ratchet does not apply, but
        // raw clocks are still banned in library code.
        let (findings, counts) = scan_source(
            "crates/bench/src/lib.rs",
            src,
            classify("crates/bench/src/lib.rs"),
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "det-clock");
        assert!(counts.is_empty());
        // Bench binaries and the obs facade itself stay exempt.
        for exempt in [
            "crates/bench/src/bin/bench_serve.rs",
            "crates/obs/src/clock.rs",
        ] {
            let (findings, _) = scan_source(exempt, src, classify(exempt));
            assert!(
                findings.iter().all(|f| f.rule != "det-clock"),
                "{exempt} must be clock-exempt: {findings:?}"
            );
        }
    }

    #[test]
    fn allowlist_roundtrip_and_malformed_lines() {
        let text = "# comment\nunwrap\tcrates/sim/src/lib.rs\t3\nbadline\n";
        let (list, findings) = parse_allowlist(text);
        assert_eq!(
            list.get(&("unwrap".to_string(), "crates/sim/src/lib.rs".to_string())),
            Some(&3)
        );
        assert_eq!(findings.len(), 1);
        let rendered = render_allowlist(&list);
        let (reparsed, refindings) = parse_allowlist(&rendered);
        assert_eq!(reparsed, list);
        assert!(refindings.is_empty());
    }

    #[test]
    fn test_region_exclusion_handles_nested_braces() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn helper(x: Option<u32>) -> u32 { if true { x.unwrap() } else { 0 } }
}
fn real(x: Option<u32>) -> u32 { x.unwrap() }
"#;
        let (_, counts) = scan_source("crates/sim/src/lib.rs", src, lib_class());
        assert_eq!(counts, vec![("unwrap", 1)]);
    }
}
