//! The rule engine: walks files, masks `#[cfg(test)]` items, matches rule
//! patterns, and applies `// aero-lint: allow(<rule>, <reason>)` pragmas.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{FileContext, Rule};

/// One lint finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What was matched (`HashMap`, `.unwrap()`, ...).
    pub message: String,
    /// The trimmed source line containing the offending token.
    pub context: String,
    /// The pragma reason, when an `aero-lint: allow` pragma covers this
    /// finding. `None` means the finding is unsuppressed (and fatal).
    pub suppressed_reason: Option<String>,
}

/// One parsed `aero-lint: allow(<rule>, <reason>)` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: Rule,
    /// The mandatory justification.
    pub reason: String,
    /// True once a finding matched this pragma.
    pub used: bool,
}

/// Lint results for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// All findings, suppressed and not, in source order.
    pub findings: Vec<Finding>,
    /// All well-formed pragmas found in the file.
    pub suppressions: Vec<Suppression>,
}

/// Lint results for a whole tree.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings across every scanned file.
    pub findings: Vec<Finding>,
    /// All well-formed pragmas across every scanned file.
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// The findings not covered by a suppression pragma. A clean tree has
    /// none; CI fails on any.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.suppressed_reason.is_none())
    }

    /// Number of unsuppressed findings.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Number of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }
}

/// The marker that introduces a pragma inside any comment.
const PRAGMA_MARKER: &str = "aero-lint:";

/// Directory names the workspace walker never descends into: build output,
/// vendored third-party stand-ins, VCS metadata, and lint-test fixture
/// snippets (which contain deliberate violations).
const SKIPPED_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Lints one source file given its workspace-relative path and contents.
/// This is the whole per-file pipeline: lex, mask `#[cfg(test)]` items,
/// collect pragmas, match rules, and resolve suppressions. Unused-pragma
/// findings (S2) are produced here too, so a single-file report is
/// self-contained.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let ctx = FileContext::classify(rel_path);
    let tokens = lex(source);
    let test_mask = compute_test_mask(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let context_line = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .unwrap_or(&"")
            .trim()
            .to_string()
    };

    // Lines holding at least one non-comment token: a pragma on a
    // comment-only line covers the next such line (see `covers`).
    let code_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.line)
        .collect();

    let mut report = FileReport::default();

    // Pass 1: pragmas (malformed ones become S1 findings immediately).
    // Pragmas inside `#[cfg(test)]` items are ignored along with the code
    // they would cover.
    for (idx, token) in tokens.iter().enumerate() {
        let Some(text) = token.comment_text() else {
            continue;
        };
        if test_mask[idx] {
            continue;
        }
        // A pragma must be the comment's directive: the text after the
        // comment sigils (`//`, `///`, `/*!`, ...) must *start* with the
        // marker. Documentation that merely mentions the syntax
        // mid-sentence is not a pragma.
        let directive = text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(body) = directive.strip_prefix(PRAGMA_MARKER) else {
            continue;
        };
        match parse_pragma(body) {
            Ok((rule, _)) if !rule.suppressible() => {
                report.findings.push(Finding {
                    rule: Rule::MalformedSuppression,
                    file: ctx.rel_path.clone(),
                    line: token.line,
                    col: token.col,
                    message: format!("rule {} cannot be suppressed", rule.id()),
                    context: context_line(token.line),
                    suppressed_reason: None,
                });
            }
            Ok((rule, reason)) => {
                report.suppressions.push(Suppression {
                    file: ctx.rel_path.clone(),
                    line: token.line,
                    rule,
                    reason,
                    used: false,
                });
            }
            Err(why) => {
                report.findings.push(Finding {
                    rule: Rule::MalformedSuppression,
                    file: ctx.rel_path.clone(),
                    line: token.line,
                    col: token.col,
                    message: why,
                    context: context_line(token.line),
                    suppressed_reason: None,
                });
            }
        }
    }

    // Pass 2: rule patterns over the code tokens.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut raw = Vec::new();
    match_rules(&ctx, &code, &test_mask, &mut raw);

    // Pass 3: resolve suppressions. A pragma covers a finding of its rule
    // when it sits on the same line (trailing comment) or on a
    // comment-only line with nothing but comment/blank lines between it
    // and the finding's line.
    for mut finding in raw {
        let covered = report
            .suppressions
            .iter_mut()
            .find(|s| s.rule == finding.rule && covers(s.line, finding.line, &code_lines));
        if let Some(s) = covered {
            s.used = true;
            finding.suppressed_reason = Some(s.reason.clone());
        }
        finding.context = context_line(finding.line);
        report.findings.push(finding);
    }

    // Pass 4: unused pragmas are findings themselves (S2) — a stale
    // suppression would silently blanket future regressions.
    for s in &report.suppressions {
        if !s.used {
            report.findings.push(Finding {
                rule: Rule::UnusedSuppression,
                file: ctx.rel_path.clone(),
                line: s.line,
                col: 1,
                message: format!("allow({}) matched no finding", s.rule.id()),
                context: context_line(s.line),
                suppressed_reason: None,
            });
        }
    }

    report.findings.sort_by_key(|f| (f.line, f.col));
    report
}

/// True if a pragma on `pragma_line` covers a finding on `finding_line`:
/// same line, or the pragma sits on a comment-only line and every line
/// strictly between is blank or comment-only.
fn covers(pragma_line: u32, finding_line: u32, code_lines: &BTreeSet<u32>) -> bool {
    if pragma_line == finding_line {
        return true;
    }
    if pragma_line > finding_line || code_lines.contains(&pragma_line) {
        return false;
    }
    // No code line in (pragma_line, finding_line).
    code_lines
        .range(pragma_line + 1..finding_line)
        .next()
        .is_none()
}

/// Parses the pragma body after the `aero-lint:` marker. Expected shape:
/// `allow(<rule>, <reason>)` where `<rule>` is a rule id (`D1`) or slug
/// (`no-hash-collections`) and `<reason>` is non-empty free text.
fn parse_pragma(body: &str) -> Result<(Rule, String), String> {
    let body = body.trim();
    let Some(rest) = body.strip_prefix("allow") else {
        return Err("expected `allow(<rule>, <reason>)` after `aero-lint:`".to_string());
    };
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(close) = inner.rfind(')') else {
        return Err("unclosed `allow(` pragma".to_string());
    };
    let inner = &inner[..close];
    let Some((rule_name, reason)) = inner.split_once(',') else {
        return Err("missing reason: use `allow(<rule>, <reason>)`".to_string());
    };
    let Some(rule) = Rule::parse(rule_name) else {
        return Err(format!("unknown rule `{}`", rule_name.trim()));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason: every suppression must say why it is safe".to_string());
    }
    Ok((rule, reason.to_string()))
}

/// Marks every token belonging to a `#[test]`- or `#[cfg(test)]`-guarded
/// item (attributes included, bodies fully covered via brace balancing).
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(tokens, i, '#') {
            i += 1;
            continue;
        }
        // `#![...]` is an inner attribute: it never introduces an item.
        let Some(open) = next_code(tokens, i + 1) else {
            break;
        };
        if !is_punct(tokens, open, '[') {
            i += 1;
            continue;
        }
        let start = i;
        let mut test_flavored = false;
        // Consume the whole stack of outer attributes on this item.
        loop {
            let Some(end) = matching_bracket(tokens, open_index(tokens, i)) else {
                // Unterminated attribute; bail out of masking.
                return mask;
            };
            test_flavored |= attr_is_test(tokens, i, end);
            // Is another outer attribute next?
            let Some(next) = next_code(tokens, end + 1) else {
                i = end + 1;
                break;
            };
            if is_punct(tokens, next, '#')
                && next_code(tokens, next + 1).is_some_and(|j| is_punct(tokens, j, '['))
            {
                i = next;
                continue;
            }
            i = end + 1;
            break;
        }
        if !test_flavored {
            continue;
        }
        // Skip the item the attributes decorate: through the first
        // balanced `{...}` block, or to a `;` at depth zero.
        let item_end = item_end(tokens, i);
        for slot in mask.iter_mut().take(item_end).skip(start) {
            *slot = true;
        }
        i = item_end;
    }
    mask
}

/// Index of the `[` opening the attribute whose `#` sits at `hash`.
fn open_index(tokens: &[Token], hash: usize) -> usize {
    next_code(tokens, hash + 1).unwrap_or(hash + 1)
}

/// Next non-comment token index at or after `i`.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    (i..tokens.len()).find(|&j| !tokens[j].is_comment())
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).map(|t| &t.kind) == Some(&TokenKind::Punct(c))
}

/// Index of the `]` matching the `[` at `open`, bracket-nesting aware.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => match depth {
                // A stray `]` before any `[`: not an attribute after all.
                0 => return None,
                1 => return Some(j),
                _ => depth -= 1,
            },
            _ => {}
        }
    }
    None
}

/// Decides whether the attribute spanning `tokens[hash..=close]` marks a
/// test-only item: `#[test]`, any `#[...::test]` (e.g. `tokio::test`), or
/// `#[cfg(...)]` whose predicate mentions `test` without a `not` (so
/// `#[cfg(not(test))]` stays live code). `#[cfg_attr(test, ...)]` does
/// *not* gate compilation and is ignored.
fn attr_is_test(tokens: &[Token], hash: usize, close: usize) -> bool {
    let idents: Vec<&str> = tokens[hash..=close]
        .iter()
        .filter_map(Token::ident)
        .collect();
    match idents.as_slice() {
        [] => false,
        ["cfg", rest @ ..] => rest.contains(&"test") && !rest.contains(&"not"),
        ["cfg_attr", ..] => false,
        // `#[test]` / `#[tokio::test]`-style: the final path segment is
        // `test` and the attribute has no arguments (no `(`).
        path => {
            *path.last().unwrap_or(&"") == "test"
                && !tokens[hash..=close]
                    .iter()
                    .any(|t| t.kind == TokenKind::Punct('('))
        }
    }
}

/// Index one past the end of the item starting at `i`: the close of its
/// first balanced `{...}` block, or one past a `;` at depth zero.
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut braces = 0usize;
    let mut parens = 0usize;
    let mut brackets = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match t.kind {
            TokenKind::Punct('{') => braces += 1,
            TokenKind::Punct('}') => {
                braces = braces.saturating_sub(1);
                if braces == 0 {
                    return j + 1;
                }
            }
            TokenKind::Punct('(') => parens += 1,
            TokenKind::Punct(')') => parens = parens.saturating_sub(1),
            TokenKind::Punct('[') => brackets += 1,
            TokenKind::Punct(']') => brackets = brackets.saturating_sub(1),
            TokenKind::Punct(';') if braces == 0 && parens == 0 && brackets == 0 => {
                return j + 1;
            }
            _ => {}
        }
    }
    tokens.len()
}

/// Runs every in-scope rule's token pattern over the code tokens.
/// `code` pairs each non-comment token with its index into the full token
/// stream (used to look up the test mask).
fn match_rules(
    ctx: &FileContext,
    code: &[(usize, &Token)],
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    let mut push = |rule: Rule, token: &Token, message: String| {
        out.push(Finding {
            rule,
            file: ctx.rel_path.clone(),
            line: token.line,
            col: token.col,
            message,
            context: String::new(),
            suppressed_reason: None,
        });
    };
    let applies = |rule: Rule, full_idx: usize| {
        ctx.rule_applies(rule) && (!test_mask[full_idx] || FileContext::rule_sees_test_code(rule))
    };
    let ident_at = |k: usize| -> Option<&str> { code.get(k).and_then(|(_, t)| t.ident()) };
    let punct_at = |k: usize, c: char| -> bool {
        code.get(k).map(|(_, t)| &t.kind) == Some(&TokenKind::Punct(c))
    };
    // `a::b` at positions k, k+1, k+2, k+3 (two single-char colons).
    let path_seg = |k: usize| -> Option<&str> {
        if punct_at(k + 1, ':') && punct_at(k + 2, ':') {
            ident_at(k + 3)
        } else {
            None
        }
    };

    for (k, &(full_idx, token)) in code.iter().enumerate() {
        let Some(name) = token.ident() else { continue };
        match name {
            // D1 — hash collections.
            "HashMap" | "HashSet" if applies(Rule::HashCollections, full_idx) => {
                push(
                    Rule::HashCollections,
                    token,
                    format!("`{name}` has nondeterministic iteration order"),
                );
            }
            // D2 — wall clock / environment.
            "Instant" | "SystemTime" | "available_parallelism"
                if applies(Rule::WallClock, full_idx) =>
            {
                push(Rule::WallClock, token, format!("`{name}` reads the host"));
            }
            "env" if applies(Rule::WallClock, full_idx) => {
                if let Some(seg @ ("var" | "var_os" | "vars")) = path_seg(k) {
                    push(
                        Rule::WallClock,
                        token,
                        format!("`env::{seg}` reads the environment"),
                    );
                }
            }
            // D3 — thread creation.
            "thread" if applies(Rule::ThreadCreate, full_idx) => {
                if let Some(seg @ ("spawn" | "scope" | "Builder")) = path_seg(k) {
                    push(
                        Rule::ThreadCreate,
                        token,
                        format!("`thread::{seg}` creates threads outside aero-exec"),
                    );
                }
            }
            // D4 — panicking shortcuts in hot-path modules.
            "unwrap" | "expect"
                if applies(Rule::PanicHotPath, full_idx) && k > 0 && punct_at(k - 1, '.') =>
            {
                push(
                    Rule::PanicHotPath,
                    token,
                    format!("`.{name}()` can panic on the hot path"),
                );
            }
            "panic" | "todo" | "unimplemented" | "unreachable"
                if applies(Rule::PanicHotPath, full_idx) && punct_at(k + 1, '!') =>
            {
                push(
                    Rule::PanicHotPath,
                    token,
                    format!("`{name}!` can panic on the hot path"),
                );
            }
            // D5 — unsafe code.
            "unsafe" if applies(Rule::UnsafeCode, full_idx) => {
                push(Rule::UnsafeCode, token, "`unsafe` is forbidden".to_string());
            }
            _ => {}
        }
    }
}

/// Recursively collects every `.rs` file under `root`, skipping
/// `SKIPPED_DIRS`, in a deterministic (sorted) order. Paths are returned
/// workspace-relative with `/` separators, paired with their absolute
/// path.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (the workspace checkout) and
/// merges the per-file reports.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = collect_rust_files(root)?;
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for (rel, abs) in files {
        let source = fs::read_to_string(&abs)?;
        let file_report = lint_source(&rel, &source);
        report.findings.extend(file_report.findings);
        report.suppressions.extend(file_report.suppressions);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsuppressed(report: &FileReport) -> Vec<(Rule, u32)> {
        report
            .findings
            .iter()
            .filter(|f| f.suppressed_reason.is_none())
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn hash_map_in_sim_crate_is_flagged_with_context() {
        let report = lint_source(
            "crates/core/src/iispe.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(unsuppressed(&report), vec![(Rule::HashCollections, 1)]);
        assert_eq!(report.findings[0].context, "use std::collections::HashMap;");
        assert_eq!(report.findings[0].col, 23);
    }

    #[test]
    fn hash_map_outside_sim_crates_is_fine() {
        for path in [
            "crates/bench/src/lib.rs",
            "crates/characterize/src/lib.rs",
            "tests/audit.rs",
            "crates/lint/src/engine.rs",
        ] {
            let report = lint_source(path, "use std::collections::HashMap;\n");
            assert!(unsuppressed(&report).is_empty(), "{path}");
        }
    }

    #[test]
    fn cfg_test_module_is_masked_but_live_code_is_not() {
        let src = "\
use std::collections::BTreeMap;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let _m: HashMap<u8, u8> = HashMap::new();
    }
}

use std::collections::HashSet;
";
        let report = lint_source("crates/ssd/src/ftl.rs", src);
        assert_eq!(unsuppressed(&report), vec![(Rule::HashCollections, 12)]);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nuse std::collections::HashMap;\n";
        let report = lint_source("crates/ssd/src/ftl.rs", src);
        assert_eq!(unsuppressed(&report), vec![(Rule::HashCollections, 2)]);
    }

    #[test]
    fn cfg_attr_does_not_mask() {
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn f() { let _: std::time::Instant; }\n";
        let report = lint_source("crates/ssd/src/ftl.rs", src);
        assert_eq!(unsuppressed(&report), vec![(Rule::WallClock, 2)]);
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "\
use std::collections::HashMap; // aero-lint: allow(D1, frozen after build; never iterated)

// aero-lint: allow(no-hash-collections, keyed lookups only)
use std::collections::HashSet;
";
        let report = lint_source("crates/nand/src/chip.rs", src);
        assert!(unsuppressed(&report).is_empty(), "{report:?}");
        assert_eq!(report.findings.len(), 2);
        assert!(report.suppressions.iter().all(|s| s.used));
        assert_eq!(
            report.findings[0].suppressed_reason.as_deref(),
            Some("frozen after build; never iterated")
        );
    }

    #[test]
    fn suppression_skips_over_comment_lines_only() {
        let src = "\
// aero-lint: allow(D1, reason spanning explanation)
// ...continued explanation...
use std::collections::HashMap;

// aero-lint: allow(D1, does not reach past code)
use std::collections::BTreeMap;
use std::collections::HashSet;
";
        let report = lint_source("crates/nand/src/chip.rs", src);
        // The first pragma covers line 3; the second covers nothing (line
        // 6 is code, so line 7's HashSet is NOT covered) and is unused.
        let open = unsuppressed(&report);
        assert!(open.contains(&(Rule::HashCollections, 7)), "{open:?}");
        assert!(open.contains(&(Rule::UnusedSuppression, 5)), "{open:?}");
        assert_eq!(open.len(), 2);
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        for (src, expect) in [
            ("// aero-lint: allow(D1)\n", "missing reason"),
            ("// aero-lint: allow(D1,   )\n", "empty reason"),
            ("// aero-lint: allow(D9, x)\n", "unknown rule"),
            ("// aero-lint: deny(D1, x)\n", "expected `allow"),
            ("// aero-lint: allow(S1, x)\n", "cannot be suppressed"),
        ] {
            let report = lint_source("crates/ssd/src/lib.rs", src);
            let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
            assert_eq!(rules, vec![Rule::MalformedSuppression], "{src}");
            assert!(
                report.findings[0].message.contains(expect),
                "{src} -> {}",
                report.findings[0].message
            );
        }
    }

    #[test]
    fn wall_clock_and_thread_rules() {
        let src = "\
use std::time::Instant;
use std::time::SystemTime;
fn f() {
    let _ = std::env::var(\"X\");
    let _ = std::thread::available_parallelism();
    std::thread::spawn(|| {});
    std::thread::scope(|_| {});
}
";
        let report = lint_source("crates/workloads/src/synth.rs", src);
        let got = unsuppressed(&report);
        assert_eq!(
            got,
            vec![
                (Rule::WallClock, 1),
                (Rule::WallClock, 2),
                (Rule::WallClock, 4),
                (Rule::WallClock, 5),
                (Rule::ThreadCreate, 6),
                (Rule::ThreadCreate, 7),
            ],
            "{report:#?}"
        );
        // bench may read clocks but still may not create threads; exec
        // is exempt from both.
        let bench = unsuppressed(&lint_source("crates/bench/src/scale.rs", src));
        assert_eq!(
            bench,
            vec![(Rule::ThreadCreate, 6), (Rule::ThreadCreate, 7)]
        );
        assert!(unsuppressed(&lint_source("crates/exec/src/lib.rs", src)).is_empty());
    }

    #[test]
    fn env_args_is_not_an_environment_read() {
        let src = "fn f() { let _ = std::env::args(); let p = env!(\"CARGO_MANIFEST_DIR\"); }\n";
        let report = lint_source("crates/workloads/src/synth.rs", src);
        assert!(unsuppressed(&report).is_empty(), "{report:?}");
    }

    #[test]
    fn panic_rule_only_in_hot_path_files() {
        let src = "\
fn f(x: Option<u8>) -> u8 {
    let a = x.unwrap();
    let b = x.expect(\"set\");
    if a == b { panic!(\"boom\") }
    todo!()
}
";
        let hot = lint_source("crates/ssd/src/session.rs", src);
        assert_eq!(
            unsuppressed(&hot),
            vec![
                (Rule::PanicHotPath, 2),
                (Rule::PanicHotPath, 3),
                (Rule::PanicHotPath, 4),
                (Rule::PanicHotPath, 5),
            ]
        );
        // Same code in a non-hot-path module is tolerated.
        assert!(unsuppressed(&lint_source("crates/ssd/src/latency.rs", src)).is_empty());
        // `unwrap_or_else` and plain `assert!` never match.
        let ok = "fn f(x: Option<u8>) { x.unwrap_or_default(); assert!(true); }\n";
        assert!(unsuppressed(&lint_source("crates/ssd/src/session.rs", ok)).is_empty());
    }

    #[test]
    fn unsafe_is_flagged_even_in_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { } }\n}\n";
        let report = lint_source("crates/bench/src/lib.rs", src);
        assert_eq!(unsuppressed(&report), vec![(Rule::UnsafeCode, 3)]);
        let test_file = lint_source("tests/audit.rs", "fn f() { unsafe { } }\n");
        assert_eq!(unsuppressed(&test_file), vec![(Rule::UnsafeCode, 1)]);
    }

    #[test]
    fn doc_mentions_of_the_pragma_syntax_are_not_pragmas() {
        let src = "\
//! Suppress with `// aero-lint: allow(<rule>, <reason>)` pragmas.
/// The `aero-lint: allow` pragma covers the next code line.
// A sentence that mentions aero-lint: allow(D1, reason) mid-text.
fn f() {}
/* aero-lint: allow(D5, block comments do work as pragmas) */
fn g() { unsafe {} }
";
        let report = lint_source("crates/lint/src/lib.rs", src);
        // Only the block-comment pragma parses; the doc/prose mentions are
        // ignored entirely (no S1, no suppression records).
        assert_eq!(report.suppressions.len(), 1);
        assert!(unsuppressed(&report).is_empty(), "{report:#?}");
    }

    #[test]
    fn pragmas_inside_cfg_test_items_are_ignored() {
        let src = "\
#[cfg(test)]
mod tests {
    // aero-lint: allow(D1, would be unused and must not count)
    fn f() {}
}
";
        let report = lint_source("crates/ssd/src/ftl.rs", src);
        assert!(report.suppressions.is_empty());
        assert!(report.findings.is_empty(), "{report:?}");
    }
}
