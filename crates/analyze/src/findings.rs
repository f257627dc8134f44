//! Findings: what a lint reports, and the two output encodings.

use std::fmt::Write as _;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint name (`cf-branch`, `no-panic`, ...).
    pub lint: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix or excuse it.
    pub suggestion: String,
}

impl Finding {
    /// `file:line: [lint] message — suggestion`, the human rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} — {}",
            self.file, self.line, self.lint, self.message, self.suggestion
        )
    }
}

/// A whole run's output.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the lints found, file order then line order.
    pub findings: Vec<Finding>,
    /// Files inspected.
    pub files_scanned: usize,
    /// Functions opted into the constant-flow lints (pragma roots).
    pub constant_flow_fns: usize,
    /// Functions covered by constant-flow checking: roots plus everything
    /// transitively reachable from them through the call graph.
    pub cf_covered_fns: usize,
    /// Functions under the crash-consistency (journal) lints.
    pub journal_fns: usize,
    /// Static zero-alloc roots.
    pub zero_alloc_roots: usize,
    /// `allow` pragmas that excused a finding.
    pub allows_consumed: usize,
    /// Findings suppressed by the checked-in baseline file.
    pub baselined: usize,
}

impl Report {
    /// Stable ordering: by file, then line, then lint name.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    }

    /// Hand-rolled JSON document (the workspace vendors no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = write!(
            s,
            "  \"files_scanned\": {},\n  \"constant_flow_fns\": {},\n  \"allows_consumed\": {},\n",
            self.files_scanned, self.constant_flow_fns, self.allows_consumed
        );
        let _ = write!(
            s,
            "  \"cf_covered_fns\": {},\n  \"journal_fns\": {},\n  \"zero_alloc_roots\": {},\n  \
             \"baselined\": {},\n",
            self.cf_covered_fns, self.journal_fns, self.zero_alloc_roots, self.baselined
        );
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}, \"suggestion\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.lint),
                json_str(&f.message),
                json_str(&f.suggestion)
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Minimal SARIF 2.1.0 document, for editor and CI integrations.
    /// `rules` is the lint catalog ([`crate::lints::LINTS`]), emitted as
    /// the driver's rule table so ruleIds resolve.
    pub fn to_sarif(&self, rules: &[(&str, &str)]) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        s.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
        s.push_str("      \"tool\": {\n        \"driver\": {\n");
        s.push_str("          \"name\": \"analyze\",\n");
        s.push_str("          \"rules\": [");
        for (i, (name, desc)) in rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
                json_str(name),
                json_str(desc)
            );
        }
        s.push_str("\n          ]\n        }\n      },\n");
        s.push_str("      \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_str(f.lint),
                json_str(&format!("{} — {}", f.message, f.suggestion)),
                json_str(&f.file),
                f.line
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }\n  ]\n}\n");
        s
    }
}

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

    #[test]
    fn json_escapes_and_shapes() {
        let mut r = Report {
            findings: vec![Finding {
                file: "a/b.rs".into(),
                line: 3,
                lint: "no-panic",
                message: "`.unwrap()` with \"quotes\"".into(),
                suggestion: "propagate".into(),
            }],
            files_scanned: 1,
            ..Report::default()
        };
        r.sort();
        let j = r.to_json();
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"files_scanned\": 1"));
        assert!(j.contains("\"cf_covered_fns\": 0"));
        assert!(j.contains("\"line\": 3"));
    }

    #[test]
    fn sarif_names_rules_and_locations() {
        let mut r = Report {
            findings: vec![Finding {
                file: "crates/core/src/lanes.rs".into(),
                line: 42,
                lint: "cf-branch",
                message: "tainted if".into(),
                suggestion: "fix".into(),
            }],
            ..Report::default()
        };
        r.sort();
        let s = r.to_sarif(&[("cf-branch", "data-dependent branch")]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"cf-branch\""));
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("crates/core/src/lanes.rs"));
    }
}
