//! Deterministic text and JSON rendering of a lint run.

use crate::rules::Finding;

#[derive(Debug)]
pub struct Report {
    /// Every finding not suppressed by an inline allow; any one fails
    /// the run.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run found nothing; the CLI exits 1 otherwise.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                f.file,
                f.line,
                f.col,
                f.rule.id(),
                f.message
            ));
            for link in &f.chain {
                out.push_str(&format!("    via {link}\n"));
            }
        }
        out.push_str(&format!(
            "nvsim-lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }

    /// Stable JSON (keys in fixed order, findings pre-sorted by the caller).
    ///
    /// `"schema": 5` — v5 drops the baseline file, and with it the
    /// baselined-finding count, the `stale_baseline` rows and the
    /// per-finding `"status"`; `new_count` is renamed `finding_count`.
    /// The `rules` inventory lists the ids this build checks, so it shrank
    /// within v5 when R1–R3, R7, R8, R10 and R13 moved to clippy and R12
    /// was deleted. v4 grew the `rules` inventory to the R15–R18
    /// unit-domain rules, whose findings reuse the per-finding `"chain"`
    /// field for operand-provenance evidence. v3 added R11–R14 and
    /// `"file_exists"` on stale-baseline rows; v2 added the schema marker
    /// itself; consumers must treat an absent `schema` key as v1.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 5,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"rules\": [");
        let ids: Vec<String> = crate::rules::ALL_RULES
            .iter()
            .map(|r| json_str(r.id()))
            .collect();
        out.push_str(&ids.join(", "));
        out.push_str("],\n");
        out.push_str("  \"findings\": [\n");
        let rows: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let chain = if f.chain.is_empty() {
                    String::new()
                } else {
                    let links: Vec<String> = f.chain.iter().map(|c| json_str(c)).collect();
                    format!(", \"chain\": [{}]", links.join(", "))
                };
                format!(
                    "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}{}}}",
                    json_str(&f.file),
                    f.line,
                    f.col,
                    json_str(f.rule.id()),
                    json_str(&f.message),
                    chain
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// GitHub Actions workflow-command annotations: one
    /// `::error file=…,line=…,col=…,title=…::message` line per finding, so
    /// findings surface inline on the PR diff.
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let mut message = f.message.clone();
            for link in &f.chain {
                message.push_str(&format!("\nvia {link}"));
            }
            out.push_str(&format!(
                "::error file={},line={},col={},title={}::{}\n",
                gh_prop(&f.file),
                f.line,
                f.col,
                gh_prop(&format!("nvsim-lint {}", f.rule.id())),
                gh_data(&message)
            ));
        }
        out
    }
}

/// Escape a workflow-command property value (`%`, CR, LF, `:`, `,`).
fn gh_prop(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escape workflow-command message data (`%`, CR, LF).
fn gh_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Minimal JSON string escaping (the only non-trivial content is messages).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding() -> Finding {
        Finding {
            file: "crates/x/src/a.rs".to_string(),
            line: 7,
            col: 3,
            rule: Rule::UnitMismatch,
            message: "mix A, 50%: b".to_string(),
            chain: vec!["lhs `x` is ns (suffix)".to_string()],
        }
    }

    #[test]
    fn github_annotation_escapes_properties_and_data() {
        let report = Report {
            findings: vec![finding()],
            files_scanned: 1,
        };
        let gh = report.render_github();
        let lines: Vec<&str> = gh.lines().collect();
        assert_eq!(lines.len(), 1);
        // Message data escapes `%` and newlines (the chain link rides along
        // as an escaped LF) but keeps `:` and `,` — only property values
        // escape those.
        assert_eq!(
            lines[0],
            "::error file=crates/x/src/a.rs,line=7,col=3,\
             title=nvsim-lint unit-mismatch::mix A, 50%25: b%0Avia lhs `x` is ns (suffix)"
        );
    }

    #[test]
    fn github_output_is_empty_when_clean() {
        let report = Report {
            findings: Vec::new(),
            files_scanned: 1,
        };
        assert!(report.render_github().is_empty());
    }
}
