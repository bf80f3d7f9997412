//! Source-level concurrency-invariant lints for the JStar workspace.
//!
//! `cargo run -p jstar-lint [ROOT]` scans every `.rs` file under `ROOT`
//! (skipping `target/` and the model checker's own internals) and enforces
//! the commenting discipline the concurrency kernels rely on:
//!
//! * **R1 `safety`** — every `unsafe` site carries a `// SAFETY:` comment
//!   (or a `# Safety` doc section) within the preceding lines.
//! * **R2 `ordering`** — every atomic `Ordering::…` use in the core crates
//!   carries a `// ord:` rationale nearby. No file is exempt.
//! * **R2b `seqcst`** — `Ordering::SeqCst` additionally needs a comment
//!   that names `SeqCst` and argues why a total order is required. (The
//!   usual fix is a downgrade, not a justification.)
//! * **R3 `unwrap`/`expect`/`std-sync`** — hot-path modules (`engine/`,
//!   `gamma/`, `jstar-pool`) must not panic via `.unwrap()`/`.expect(…)`
//!   or reach for `std::sync` primitives directly.
//! * **R4 `shim`** — files migrated onto `jstar_check::sync` must not
//!   regress to `std::sync::atomic` or `parking_lot` anywhere, tests
//!   included, or the model checker silently loses sight of them.
//!
//! A [`SHIM_MANDATED`] entry that names no file is itself a finding
//! (**`stale-entry`**): an entry that guards nothing would otherwise
//! outlive the file it was written for without a word.
//!
//! Any rule is waivable at a specific site with
//! `// lint: allow(RULE): reason` on the line or within the three lines
//! above it — the reason is mandatory and the waiver is deliberately loud
//! in review diffs.
//!
//! The scanner is a comment/string-aware lexer, not a parser: strings and
//! comments are stripped before rule matching, so doc examples and
//! `"parking_lot"` inside a string never trip a rule, while the comment
//! text itself is what satisfies the SAFETY/ord requirements.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files that have been migrated onto `jstar_check::sync` and must stay
/// there (**R4**): a raw `std::sync::atomic`/`parking_lot` reference in one
/// of these would be invisible to the model checker.
pub const SHIM_MANDATED: &[&str] = &[
    "crates/jstar-core/src/delta.rs",
    "crates/jstar-core/src/engine/coordinator.rs",
    "crates/jstar-core/src/engine/ctx.rs",
    "crates/jstar-core/src/engine/runtime.rs",
    "crates/jstar-core/src/gamma/hash.rs",
    "crates/jstar-core/src/gamma/mod.rs",
    "crates/jstar-core/src/gamma/reservation.rs",
    "crates/jstar-core/src/gamma/write_once.rs",
    "crates/jstar-core/src/relation.rs",
    "crates/jstar-core/src/stats.rs",
    "crates/jstar-core/src/tuple.rs",
    "crates/jstar-disruptor/src/lib.rs",
    "crates/jstar-disruptor/src/multi.rs",
    "crates/jstar-disruptor/src/ring.rs",
    "crates/jstar-disruptor/src/sequence.rs",
    "crates/jstar-disruptor/src/wait.rs",
    "crates/jstar-pool/src/batch.rs",
    "crates/jstar-pool/src/latch.rs",
    "crates/jstar-pool/src/pool.rs",
    "crates/jstar-pool/src/scope.rs",
];

/// Directories whose non-test code is a hot path (**R3**).
const HOT_PATHS: &[&str] = &[
    "crates/jstar-core/src/engine/",
    "crates/jstar-core/src/gamma/",
    "crates/jstar-pool/src/",
    "crates/jstar-disruptor/src/",
];

/// Crates whose atomics require `ord:` rationales (**R2**).
const CORE_CRATES: &[&str] = &[
    "crates/jstar-core/src/",
    "crates/jstar-pool/src/",
    "crates/jstar-disruptor/src/",
];

/// Paths never linted: generated output and the model checker's own
/// internals (which implement the instrumented primitives and so must use
/// raw `std::sync`/`parking_lot` and every `Ordering` variant).
const SKIP: &[&str] = &["target/", "crates/jstar-check/"];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// A source line split into executable code and comment text.
#[derive(Default)]
struct Line {
    code: String,
    comment: String,
}

/// Comment/string-aware split of `src` into per-line code and comment
/// channels. String and char literal *contents* are elided from the code
/// channel (the quotes remain), so tokens inside literals never match a
/// rule; comment text goes to the comment channel where the SAFETY/ord
/// markers are looked up.
fn lex(src: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out: Vec<Line> = vec![Line::default()];
    let mut state = State::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            out.push(Line::default());
            i += 1;
            continue;
        }
        let cur = out.last_mut().expect("one line always open");
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match (c, next) {
                    ('/', Some('/')) => {
                        state = State::LineComment;
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    ('"', _) => {
                        cur.code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    ('r', Some('"')) | ('r', Some('#')) => {
                        // Possible raw string r"…" / r#"…"#.
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            cur.code.push('"');
                            state = State::RawStr(hashes);
                            i = j + 1;
                        } else {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                    ('\'', _) => {
                        // Char literal vs lifetime: a literal is 'x' or an
                        // escape; a lifetime has no closing quote nearby.
                        if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                            cur.code.push('\'');
                            state = State::Char;
                            i += 1;
                        } else {
                            cur.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

/// True if `hay` contains `needle` as a standalone identifier (not part of
/// a longer identifier or path segment).
fn has_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The atomic `Ordering::` variants referenced on this code line.
fn atomic_orderings(code: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("Ordering::") {
        let after = &code[start + pos + "Ordering::".len()..];
        for &v in ATOMIC_ORDERINGS {
            if after.starts_with(v) {
                let rest = after.as_bytes().get(v.len()).copied();
                let boundary = !rest.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
                if boundary {
                    found.push(v);
                }
            }
        }
        start += pos + "Ordering::".len();
    }
    found
}

/// Does any comment within `[line-window, line]` (0-indexed) contain
/// `marker`?
fn comment_nearby(lines: &[Line], line: usize, window: usize, marker: &str) -> bool {
    let lo = line.saturating_sub(window);
    lines[lo..=line].iter().any(|l| l.comment.contains(marker))
}

/// Is the site waived via `// lint: allow(rule): reason`?
fn waived(lines: &[Line], line: usize, rule: &str) -> bool {
    let lo = line.saturating_sub(3);
    let tag = format!("lint: allow({rule})");
    lines[lo..=line].iter().any(|l| {
        if let Some(pos) = l.comment.find(&tag) {
            // The reason after the closing "):" is mandatory.
            let rest = l.comment[pos + tag.len()..].trim_start();
            rest.starts_with(':') && rest[1..].trim().len() >= 3
        } else {
            false
        }
    })
}

fn path_matches(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// First line (0-indexed) of the file's test region, if any. Test modules
/// in this workspace sit at the end of each file, so everything from the
/// first `#[cfg(test)]`-style attribute (or the whole file, under a
/// `tests/` directory) is treated as test code.
fn test_region_start(rel: &str, lines: &[Line]) -> usize {
    // Whole-file test code: integration test dirs, plus the out-of-line
    // test/testutil modules the parent includes under `#[cfg(test)]`.
    if rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.ends_with("/tests.rs")
        || rel.ends_with("/testutil.rs")
        || rel.ends_with("/bench.rs")
    {
        return 0;
    }
    lines
        .iter()
        .position(|l| {
            let c = &l.code;
            c.contains("#[cfg(test)]") || c.contains("#[cfg(all(test")
        })
        .unwrap_or(lines.len())
}

/// Lints one file's source. `rel` is the path relative to the workspace
/// root, with `/` separators.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if path_matches(rel, SKIP) {
        return findings;
    }
    let lines = lex(src);
    let test_start = test_region_start(rel, &lines);
    let in_core = path_matches(rel, CORE_CRATES);
    let in_hot = path_matches(rel, HOT_PATHS);
    let shim_file = SHIM_MANDATED.contains(&rel);

    let mut push = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (n, l) in lines.iter().enumerate() {
        let code = &l.code;
        let in_test = n >= test_start;

        // R1: unsafe needs a SAFETY comment (everywhere, tests included).
        if has_word(code, "unsafe")
            && !comment_nearby(&lines, n, 6, "SAFETY")
            && !comment_nearby(&lines, n, 6, "# Safety")
            && !waived(&lines, n, "safety")
        {
            push(
                n,
                "safety",
                "`unsafe` without a `// SAFETY:` comment within 6 lines".into(),
            );
        }

        let ords = atomic_orderings(code);

        // R2: atomic orderings in core crates need an `ord:` rationale.
        if !ords.is_empty()
            && in_core
            && !in_test
            && !comment_nearby(&lines, n, 10, "ord:")
            && !waived(&lines, n, "ordering")
        {
            push(
                n,
                "ordering",
                format!(
                    "`Ordering::{}` without an `// ord:` rationale within 10 lines",
                    ords[0]
                ),
            );
        }

        // R2b: SeqCst needs an explicit named justification, everywhere.
        if ords.contains(&"SeqCst")
            && !comment_nearby(&lines, n, 10, "SeqCst")
            && !waived(&lines, n, "seqcst")
        {
            push(
                n,
                "seqcst",
                "`Ordering::SeqCst` without a comment justifying the total order \
                 (prefer a downgrade)"
                    .into(),
            );
        }

        // R3: hot-path hygiene (non-test code only).
        if in_hot && !in_test {
            if code.contains(".unwrap()") && !waived(&lines, n, "unwrap") {
                push(n, "unwrap", "`.unwrap()` on a hot path".into());
            }
            if code.contains(".expect(") && !waived(&lines, n, "expect") {
                push(n, "expect", "`.expect(…)` on a hot path".into());
            }
            // `std::sync::Arc` is fine; the ban is on blocking/channel
            // primitives (locks live in jstar_check::sync or parking_lot,
            // coordination in jstar-pool). Atomics are R2/R4's business.
            let std_sync_lock = code.contains("std::sync::")
                && ["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"]
                    .iter()
                    .any(|w| has_word(code, w));
            if std_sync_lock && !waived(&lines, n, "std-sync") {
                push(
                    n,
                    "std-sync",
                    "direct `std::sync` primitive on a hot path (use jstar_check::sync \
                     or jstar-pool)"
                        .into(),
                );
            }
        }

        // R4: shim-mandated files must not regress to raw primitives.
        if shim_file {
            for pat in ["std::sync::atomic", "parking_lot"] {
                if code.contains(pat) && !waived(&lines, n, "shim") {
                    push(
                        n,
                        "shim",
                        format!(
                            "`{pat}` in a shim-mandated file (use jstar_check::sync so \
                             the model checker sees this)"
                        ),
                    );
                }
            }
        }
    }
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The [`SHIM_MANDATED`] entries for which `exists` (given the
/// workspace-relative path) says there is no file.
fn stale_entries(exists: impl Fn(&str) -> bool) -> Vec<Finding> {
    SHIM_MANDATED
        .iter()
        .filter(|&&rel| !exists(rel))
        .map(|&rel| Finding {
            file: rel.to_string(),
            line: 0,
            rule: "stale-entry",
            message: "`SHIM_MANDATED` names a file that does not exist".into(),
        })
        .collect()
}

/// Lints every `.rs` file under `root`; returns all findings sorted by
/// path and line, after any stale list entries.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut findings = stale_entries(|rel| root.join(rel).is_file());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(lint_source(&rel, &src));
    }
    findings
}

/// CLI driver: prints findings, returns the process exit code.
pub fn run(root: &str) -> i32 {
    let findings = lint_tree(Path::new(root));
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("jstar-lint: clean");
        0
    } else {
        println!("jstar-lint: {} finding(s)", findings.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/jstar-core/src/gamma/somefile.rs";

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn bare_unsafe_fails() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["safety"]);
    }

    #[test]
    fn safety_comment_satisfies_r1() {
        let src =
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn safety_doc_section_satisfies_r1() {
        let src = "/// # Safety\n/// Caller must own `p`.\npub unsafe fn f(p: *const u8) {}\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        let src = "fn f() { let _ = \"unsafe { }\"; }\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn unsafe_in_raw_string_and_comment_is_ignored() {
        let src = "fn f() { let _ = r#\"unsafe\"#; }\n// unsafe unsafe unsafe\n/* unsafe */\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn ordering_without_rationale_fails_in_core() {
        let src = "fn f(a: &A) { a.x.store(1, Ordering::Release); }\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["ordering"]);
    }

    #[test]
    fn ord_comment_satisfies_r2() {
        let src = "fn f(a: &A) {\n    // ord: Release — publishes the init above.\n    a.x.store(1, Ordering::Release);\n}\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_atomic() {
        let src = "fn f(a: i32) -> bool { a.cmp(&0) == Ordering::Less }\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn ordering_outside_core_crates_is_free() {
        let src = "fn f(a: &A) { a.x.store(1, Ordering::Release); }\n";
        assert!(lint_source("crates/jstar-apps/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_region_skips_r2_but_not_r1() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &A) { a.x.load(Ordering::Acquire); }\n    fn g(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["safety"]);
    }

    #[test]
    fn seqcst_needs_named_justification() {
        // An ord: comment that does not mention SeqCst is not enough.
        let src = "fn f(a: &A) {\n    // ord: total order needed.\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["seqcst"]);
        let ok = "fn f(a: &A) {\n    // ord: SeqCst — asymmetric Dekker handoff needs a total order.\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        assert!(lint_source(CORE, ok).is_empty());
    }

    #[test]
    fn hot_path_unwrap_fails_and_waiver_passes() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["unwrap"]);
        let ok = "fn f(o: Option<u8>) -> u8 {\n    // lint: allow(unwrap): o is Some by construction two lines up.\n    o.unwrap()\n}\n";
        assert!(lint_source(CORE, ok).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_rejected() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    // lint: allow(unwrap):\n    o.unwrap()\n}\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["unwrap"]);
    }

    #[test]
    fn unwrap_in_tests_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u8>) -> u8 { o.unwrap() }\n}\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn std_sync_lock_on_hot_path_fails_but_arc_is_fine() {
        let src = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(rules(&lint_source(CORE, src)), ["std-sync"]);
        assert!(lint_source(CORE, "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn shim_file_rejects_raw_primitives_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        let f = lint_source("crates/jstar-core/src/delta.rs", src);
        assert_eq!(rules(&f), ["shim"]);
        let pl = "fn f() { let _ = parking_lot::Mutex::new(()); }\n";
        assert_eq!(
            rules(&lint_source("crates/jstar-core/src/delta.rs", pl)),
            ["shim"]
        );
    }

    #[test]
    fn shim_tokens_in_doc_comments_are_fine() {
        let src = "//! ```\n//! use std::sync::atomic::AtomicI64;\n//! let m = parking_lot::Mutex::new(());\n//! ```\n";
        assert!(lint_source("crates/jstar-core/src/delta.rs", src).is_empty());
    }

    #[test]
    fn checker_internals_are_skipped() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(lint_source("crates/jstar-check/src/exec.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() -> char { 'x' }\nfn h() -> char { '\\'' }\n";
        assert!(lint_source(CORE, src).is_empty());
    }

    #[test]
    fn a_list_entry_naming_no_file_is_a_finding() {
        assert!(stale_entries(|_| true).is_empty());
        let missing = "crates/jstar-core/src/gamma/hash.rs";
        let f = stale_entries(|rel| rel != missing);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].file.as_str(), f[0].rule), (missing, "stale-entry"));
        assert!(f[0].message.contains("SHIM_MANDATED"));
        assert_eq!(stale_entries(|_| false).len(), SHIM_MANDATED.len());
    }

    #[test]
    fn findings_carry_one_based_lines() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let f = lint_source(CORE, src);
        assert_eq!((f[0].line, f[0].rule), (2, "safety"));
    }
}
