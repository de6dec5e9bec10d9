//! Report rendering: human-readable text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the crate has zero dependencies); it
//! escapes strings per RFC 8259 and emits a stable key order so CI
//! artifacts diff cleanly between runs.

use std::fmt::Write as _;

use crate::engine::LintReport;
use crate::rules::ALL_RULES;

/// Renders the human-readable report: one `file:line:col: id slug:
/// message` line per unsuppressed finding, followed by a summary. The
/// suppressed findings are listed only when `verbose` is set.
pub fn render_text(report: &LintReport, verbose: bool) -> String {
    let mut out = String::new();
    for finding in report.unsuppressed() {
        let _ = writeln!(
            out,
            "{}:{}:{}: {} {}: {}\n    {}",
            finding.file,
            finding.line,
            finding.col,
            finding.rule.id(),
            finding.rule.slug(),
            finding.message,
            finding.context,
        );
    }
    if verbose {
        for finding in report.findings.iter() {
            if let Some(reason) = &finding.suppressed_reason {
                let _ = writeln!(
                    out,
                    "{}:{}:{}: {} suppressed: {} (reason: {})",
                    finding.file,
                    finding.line,
                    finding.col,
                    finding.rule.id(),
                    finding.message,
                    reason,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "aero-lint: {} unsuppressed finding(s), {} suppressed, {} suppression pragma(s), {} file(s) scanned",
        report.unsuppressed_count(),
        report.suppressed_count(),
        report.suppressions.len(),
        report.files_scanned,
    );
    out
}

/// Renders the machine-readable JSON report (a single object; see the
/// README's "Static analysis" section for the schema).
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(
        out,
        "  \"unsuppressed_count\": {},",
        report.unsuppressed_count()
    );
    let _ = writeln!(
        out,
        "  \"suppressed_count\": {},",
        report.suppressed_count()
    );

    out.push_str("  \"rules\": [\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": {}, \"slug\": {}, \"description\": {}}}",
            json_str(rule.id()),
            json_str(rule.slug()),
            json_str(rule.description())
        );
        out.push_str(if i + 1 < ALL_RULES.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": {}, \"slug\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \
             \"message\": {}, \"context\": {}, \"suppressed\": {}",
            json_str(f.rule.id()),
            json_str(f.rule.slug()),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.message),
            json_str(&f.context),
            f.suppressed_reason.is_some(),
        );
        if let Some(reason) = &f.suppressed_reason {
            let _ = write!(out, ", \"reason\": {}", json_str(reason));
        }
        out.push('}');
        out.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");

    out.push_str("  \"suppressions\": [\n");
    for (i, s) in report.suppressions.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}, \"used\": {}}}",
            json_str(&s.file),
            s.line,
            json_str(s.rule.id()),
            json_str(&s.reason),
            s.used,
        );
        out.push_str(if i + 1 < report.suppressions.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escapes a string as a JSON string literal (RFC 8259 §7).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    fn sample() -> LintReport {
        let file = lint_source(
            "crates/core/src/iispe.rs",
            "use std::collections::HashMap; // aero-lint: allow(D1, ok \"quoted\")\n\
             use std::collections::HashSet;\n",
        );
        LintReport {
            findings: file.findings,
            suppressions: file.suppressions,
            files_scanned: 1,
        }
    }

    #[test]
    fn text_report_lists_unsuppressed_with_context() {
        let text = render_text(&sample(), false);
        assert!(text.contains("crates/core/src/iispe.rs:2:23: D1 no-hash-collections"));
        assert!(text.contains("use std::collections::HashSet;"));
        assert!(text.contains("1 unsuppressed finding(s), 1 suppressed"));
        // Suppressed findings appear only in verbose mode.
        assert!(!text.contains("reason: ok"));
        assert!(render_text(&sample(), true).contains("(reason: ok \"quoted\")"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("\"unsuppressed_count\": 1"));
        assert!(json.contains("\"suppressed\": true"));
        assert!(json.contains("\"reason\": \"ok \\\"quoted\\\"\""));
        assert!(json.contains("\"used\": true"));
        // Every rule is described.
        for rule in ALL_RULES {
            assert!(json.contains(&format!("\"id\": \"{}\"", rule.id())));
        }
    }

    #[test]
    fn json_str_escapes_control_characters() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
