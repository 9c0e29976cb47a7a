//! Structural passes over the token stream: test-region detection and
//! allow-annotation parsing.
//!
//! Test-region detection is attribute-driven: an item introduced by
//! `#[test]`, `#[should_panic]`, or `#[cfg(test)]` (also `#[cfg(any(test, ..))]`
//! etc. — any `cfg` attribute mentioning the ident `test`) is skipped by all
//! per-site rules, along with its entire `{ ... }` body. That is how a
//! narrowing cast inside a `#[cfg(test)] mod tests` block stays clean without
//! the lexer understanding modules.

use crate::lexer::{Tok, TokKind};

/// Return a mask, parallel to `toks`, marking tokens that live inside a
/// test-only item (the attribute itself, any stacked attributes after it,
/// and the item body up to its matching close brace or terminating `;`).
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            if let Some((attr_end, is_test)) = parse_attr(toks, i) {
                if is_test {
                    let region_end = item_end(toks, attr_end);
                    for m in mask.iter_mut().take(region_end).skip(i) {
                        *m = true;
                    }
                    i = region_end;
                } else {
                    i = attr_end;
                }
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Index of the next non-comment token at or after `i`.
fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if toks[i].kind != TokKind::Comment {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// If `toks[i]` opens an attribute (`#[...]` or `#![...]`), return
/// `(index past the closing ']', whether the attribute marks test-only code)`.
fn parse_attr(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let mut j = next_code(toks, i + 1)?;
    if toks[j].is_punct('!') {
        j = next_code(toks, j + 1)?;
    }
    if !toks[j].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut first_ident: Option<&str> = None;
    let mut mentions_test = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                let is_test = match first_ident {
                    Some("test") | Some("should_panic") => true,
                    Some("cfg") => mentions_test,
                    _ => false,
                };
                return Some((j + 1, is_test));
            }
        } else if t.kind == TokKind::Ident {
            if first_ident.is_none() {
                first_ident = Some(&t.text);
            }
            if t.text == "test" {
                mentions_test = true;
            }
        }
        j += 1;
    }
    // Unterminated attribute: treat as not-an-attribute.
    None
}

/// Starting just past an attribute, find the end of the annotated item:
/// skip any further stacked attributes, then scan to the first `{` at zero
/// paren/bracket depth and return the index past its matching `}`, or past
/// a terminating `;` for body-less items.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut j = start;
    // Skip stacked attributes (and doc comments between them).
    while let Some(k) = next_code(toks, j) {
        if toks[k].is_punct('#') {
            if let Some((attr_end, _)) = parse_attr(toks, k) {
                j = attr_end;
                continue;
            }
        }
        j = k;
        break;
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return j + 1;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return toks.len();
        }
        j += 1;
    }
    toks.len()
}

/// One parsed `// nvsim-lint: allow(<rule>) — <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id inside `allow(...)`.
    pub rule: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// Line the annotation suppresses: the comment's own line for trailing
    /// comments, otherwise the line of the next code token.
    pub applies_line: u32,
    /// Whether a written justification follows the `allow(...)`.
    pub has_reason: bool,
}

const MARKER: &str = "nvsim-lint:";

/// Extract allow-annotations from comment tokens. `toks` must be the full
/// stream (annotation placement is resolved against neighbouring code
/// tokens).
pub fn allows(toks: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        // An annotation must begin the comment (after the `//`/`/*` markers);
        // prose that merely mentions `nvsim-lint:` mid-sentence is not one.
        let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            // `nvsim-lint:` marker without a recognised directive: surface it
            // as an annotation with an empty rule so the rule engine can
            // flag it rather than silently ignoring a typo.
            out.push(Allow {
                rule: String::new(),
                comment_line: t.line,
                applies_line: applies_line(toks, i),
                has_reason: false,
            });
            continue;
        };
        let (rule, after) = match args.split_once(')') {
            Some((r, a)) => (r.trim().to_string(), a),
            None => (String::new(), ""),
        };
        let reason = after
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
        out.push(Allow {
            rule,
            comment_line: t.line,
            applies_line: applies_line(toks, i),
            has_reason: !reason.trim().is_empty(),
        });
    }
    out
}

/// Line a comment annotation applies to: its own line when code precedes it
/// on that line (trailing comment), else the line of the next code token.
fn applies_line(toks: &[Tok], comment_idx: usize) -> u32 {
    let line = toks[comment_idx].line;
    let trailing = toks[..comment_idx]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| t.kind != TokKind::Comment);
    if trailing {
        return line;
    }
    match next_code(toks, comment_idx + 1) {
        Some(k) => toks[k].line,
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn masked_idents(src: &str) -> Vec<(String, bool)> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        toks.iter()
            .zip(&mask)
            .filter(|(t, _)| t.kind == TokKind::Ident)
            .map(|(t, m)| (t.text.clone(), *m))
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn helper() { let m = HashMap::new(); }
            }
            fn also_live() {}
        ";
        let ids = masked_idents(src);
        let get = |name: &str| {
            ids.iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| *m)
                .unwrap_or(false)
        };
        assert!(!get("live"));
        assert!(get("HashMap"));
        assert!(!get("also_live"));
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_masked() {
        let src = "
            #[test]
            #[should_panic(expected = \"boom\")]
            fn explodes() { panic!(\"boom\"); }
            fn live() {}
        ";
        let ids = masked_idents(src);
        assert!(ids.iter().any(|(n, m)| n == "panic" && *m));
        assert!(ids.iter().any(|(n, m)| n == "live" && !*m));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"x\")] fn live() {}";
        let ids = masked_idents(src);
        assert!(ids.iter().any(|(n, m)| n == "live" && !*m));
    }

    #[test]
    fn allow_parsing_trailing_and_preceding() {
        let src = "
            let a = n as u32; // nvsim-lint: allow(cast-truncation) — n < 2^20
            // nvsim-lint: allow(cast-truncation) — bounded by the array length
            let b = m as u32;
            // nvsim-lint: allow(cast-truncation)
            let c = k as u32;
        ";
        let toks = lex(src);
        let al = allows(&toks);
        assert_eq!(al.len(), 3);
        assert_eq!(al[0].applies_line, al[0].comment_line);
        assert!(al[0].has_reason);
        assert_eq!(al[1].applies_line, al[1].comment_line + 1);
        assert!(al[1].has_reason);
        assert!(!al[2].has_reason);
    }
}
