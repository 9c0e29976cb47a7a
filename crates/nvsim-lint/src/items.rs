//! Brace-matched item-tree parser over the token stream.
//!
//! This is the structural layer between the lexer and the semantic rules:
//! it recovers, per file, the list of function items (free functions, impl
//! methods, trait methods with default bodies) together with
//!
//!   * the owner type (enclosing `impl`/`trait` block), for qualified-call
//!     resolution,
//!   * every call site inside each body (`free()`, `.method()`,
//!     `Type::assoc()`), name-based — no type inference,
//!   * whether the function is test-only.
//!
//! The output feeds the submit-pairing check (R4
//! `expect-completion-misuse`), the snapshot helper walk (R11), the
//! Driver lock graph (R12) and the unit-domain engine (R15–R18). The
//! parser is deliberately conservative: it only needs brace/paren/bracket
//! matching plus a small angle-bracket matcher for `impl` headers, never
//! a full grammar. Anything it cannot classify is simply not an item,
//! which over-approximates the call sites but never crashes.

use crate::lexer::{Tok, TokKind};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// `Some(Q)` for a `Q::name(..)` qualified call.
    pub qual: Option<String>,
    /// True for `.name(..)` method-call position.
    pub method: bool,
    pub line: u32,
    pub col: u32,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// Trait being implemented when the enclosing block is
    /// `impl Trait for Type` (`Some("Snapshot")` for the checkpoint
    /// impls); `None` for inherent impls, trait declarations, and free
    /// functions.
    pub of_trait: Option<String>,
    /// Line of the `fn` keyword (annotation anchor and finding position).
    pub line: u32,
    pub col: u32,
    /// True when the item sits inside a `#[test]`/`#[cfg(test)]` region.
    pub is_test: bool,
    /// Token-index range `[start, end]` of the body — the opening `{` and
    /// its matching `}` in the *full* token stream — for passes that need
    /// to re-scan body tokens (R11 field references, R12 lock events).
    /// `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<Call>,
}

impl FnItem {
    /// `Owner::name` display form.
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that can appear in call-looking position but never name a
/// workspace function.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "let"
            | "else"
            | "fn"
            | "impl"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "dyn"
            | "ref"
            | "mut"
            | "move"
            | "const"
            | "static"
            | "break"
            | "continue"
            | "await"
            | "self"
            | "Self"
            | "super"
            | "crate"
    )
}

/// Parse the token stream into function items.
///
/// `mask` is the test-region mask from [`crate::scope::test_mask`] over
/// the same token stream.
pub fn parse_items(toks: &[Tok], mask: &[bool]) -> Vec<FnItem> {
    // Work over code tokens only, but remember original indices so the
    // test mask can be consulted.
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();

    let mut fns: Vec<FnItem> = Vec::new();
    // (brace depth the block was opened at, owner name, implemented trait).
    let mut owner_stack: Vec<(i32, String, Option<String>)> = Vec::new();
    // (index into `fns`, brace depth the body was opened at).
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut depth: i32 = 0;
    let mut k = 0usize;

    while k < code.len() {
        let i = code[k];
        let t = &toks[i];

        if t.is_punct('{') {
            depth += 1;
            k += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while owner_stack.last().is_some_and(|&(d, _, _)| d >= depth) {
                owner_stack.pop();
            }
            while fn_stack.last().is_some_and(|&(_, d)| d >= depth) {
                if let Some((fid, _)) = fn_stack.pop() {
                    if let Some((start, _)) = fns[fid].body {
                        fns[fid].body = Some((start, i));
                    }
                }
            }
            k += 1;
            continue;
        }

        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }

        match t.text.as_str() {
            kw @ ("impl" | "trait") => {
                if let Some((name, of_trait, brace_k)) = block_header(toks, &code, k, kw == "trait")
                {
                    // Push the owner at the depth the `{` will open; the
                    // main loop processes the `{` itself.
                    owner_stack.push((depth, name, of_trait));
                    k = brace_k;
                } else {
                    k += 1;
                }
                continue;
            }
            "fn" => {
                // `fn` in type position (`fn(u32) -> u32`) has `(` next.
                let name_tok = code.get(k + 1).map(|&j| &toks[j]);
                if let Some(nt) = name_tok.filter(|nt| nt.kind == TokKind::Ident) {
                    let item = FnItem {
                        name: nt.text.clone(),
                        owner: owner_stack.last().map(|(_, n, _)| n.clone()),
                        of_trait: owner_stack.last().and_then(|(_, _, tr)| tr.clone()),
                        line: t.line,
                        col: t.col,
                        is_test: mask[i],
                        body: None,
                        calls: Vec::new(),
                    };
                    // Find the body `{` (or terminating `;` for bodyless
                    // trait declarations) at paren/bracket depth 0.
                    let mut paren = 0i32;
                    let mut bracket = 0i32;
                    let mut j = k + 2;
                    let mut body = None;
                    while j < code.len() {
                        let tt = &toks[code[j]];
                        if tt.is_punct('(') {
                            paren += 1;
                        } else if tt.is_punct(')') {
                            paren -= 1;
                        } else if tt.is_punct('[') {
                            bracket += 1;
                        } else if tt.is_punct(']') {
                            bracket -= 1;
                        } else if paren == 0 && bracket == 0 {
                            if tt.is_punct(';') {
                                break;
                            }
                            if tt.is_punct('{') {
                                body = Some(j);
                                break;
                            }
                        }
                        j += 1;
                    }
                    let id = fns.len();
                    fns.push(item);
                    match body {
                        Some(b) => {
                            // Start the span at the opening brace; the end is
                            // patched in when the matching `}` pops the stack.
                            fns[id].body = Some((code[b], code[b]));
                            fn_stack.push((id, depth));
                            k = b; // main loop opens the brace
                        }
                        None => k = j + 1,
                    }
                    continue;
                }
            }
            name => {
                if let Some(&(fid, _)) = fn_stack.last() {
                    if !mask[i] {
                        record_call(toks, &code, k, name, &mut fns[fid]);
                    }
                }
            }
        }
        k += 1;
    }
    fns
}

/// Record the call site at code-token index `k`, if it is one, against `f`.
fn record_call(toks: &[Tok], code: &[usize], k: usize, name: &str, f: &mut FnItem) {
    let t = &toks[code[k]];
    let next = code.get(k + 1).map(|&j| &toks[j]);
    let prev = k.checked_sub(1).map(|p| &toks[code[p]]);

    if !next.is_some_and(|n| n.is_punct('(')) {
        return;
    }
    let is_method = prev.is_some_and(|p| p.is_punct('.'));

    if is_keyword(name) {
        return;
    }
    // Definition site (`fn name(`) is handled by the caller, not a call.
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return;
    }

    // Qualified call `Q::name(` — look two tokens back for `::` then the
    // qualifier ident.
    let qual = if !is_method
        && k >= 3
        && toks[code[k - 1]].is_punct(':')
        && toks[code[k - 2]].is_punct(':')
        && toks[code[k - 3]].kind == TokKind::Ident
    {
        Some(toks[code[k - 3]].text.clone())
    } else {
        None
    };

    f.calls.push(Call {
        name: name.to_string(),
        qual,
        method: is_method,
        line: t.line,
        col: t.col,
    });
}

/// Parse an `impl`/`trait` block header starting at code index `k` (the
/// keyword). Returns `(owner name, implemented trait, code index of the
/// opening brace)`, or `None` when no block follows (e.g. `impl Trait` in
/// return-type position, trait alias). For a `trait` the name is the first
/// ident (supertrait bounds follow it); for an `impl` it is the last path
/// segment, reset at `for` so `impl Trait for Type` owns `Type` and
/// implements `Trait`.
fn block_header(
    toks: &[Tok],
    code: &[usize],
    k: usize,
    is_trait: bool,
) -> Option<(String, Option<String>, usize)> {
    let mut angle = 0i32;
    let mut last_seg: Option<String> = None;
    let mut of_trait: Option<String> = None;
    let mut j = k + 1;
    while j < code.len() {
        let t = &toks[code[j]];
        let prev = &toks[code[j - 1]];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev.is_punct('-') {
            // `>` closes a generic list unless it is the `->` arrow head.
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') {
                return last_seg.map(|n| (n, of_trait, j));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.kind == TokKind::Ident {
                if is_trait {
                    if last_seg.is_none() {
                        last_seg = Some(t.text.clone());
                    }
                    j += 1;
                    continue;
                }
                match t.text.as_str() {
                    // `impl Trait for Type`: the owner is the type; the
                    // segment parsed so far names the trait.
                    "for" => {
                        of_trait = last_seg.take();
                    }
                    // Bounds after `where` never rename the owner.
                    "where" => {
                        let n = last_seg?;
                        // Scan on for the brace.
                        let mut jj = j + 1;
                        let mut a = 0i32;
                        while jj < code.len() {
                            let tt = &toks[code[jj]];
                            let pp = &toks[code[jj - 1]];
                            if tt.is_punct('<') {
                                a += 1;
                            } else if tt.is_punct('>') && !pp.is_punct('-') {
                                a -= 1;
                            } else if a == 0 && tt.is_punct('{') {
                                return Some((n, of_trait, jj));
                            } else if a == 0 && tt.is_punct(';') {
                                return None;
                            }
                            jj += 1;
                        }
                        return None;
                    }
                    "dyn" | "mut" | "const" | "unsafe" | "impl" => {}
                    other => last_seg = Some(other.to_string()),
                }
            }
        }
        j += 1;
    }
    None
}

/// One named field of a struct (or one variant of an enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    /// Line of the field/variant name (annotation anchor).
    pub line: u32,
    pub col: u32,
}

/// One parsed `struct`/`enum` definition with its named fields.
#[derive(Debug, Clone)]
pub struct TypeDef {
    pub name: String,
    /// Line of the `struct`/`enum` keyword.
    pub line: u32,
    /// True for `enum` definitions — `fields` then holds the variant
    /// names (a fieldless state machine like `Durability` snapshots by
    /// matching every variant in both directions).
    pub is_enum: bool,
    /// Named fields (structs) or variants (enums), in declaration order.
    /// Empty for unit and tuple structs.
    pub fields: Vec<FieldDef>,
}

/// Parse every non-test `struct`/`enum` definition in the token stream.
///
/// The parser is attribute- and comment-aware and tracks paren / bracket /
/// angle nesting so commas inside field types (`Option<(ReqId, Time)>`)
/// never start a new field. Tuple and unit structs are recorded with no
/// fields; enum struct-variants contribute the *variant* name only.
pub fn parse_types(toks: &[Tok], mask: &[bool]) -> Vec<TypeDef> {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "struct" || t.text == "enum") && !mask[i] {
            let is_enum = t.text == "enum";
            // The definition name is the next ident; `struct` in prose or
            // as a field name never has one followed by `{`/`;`/`(`/`<`.
            let Some(name_tok) = code.get(k + 1).map(|&j| &toks[j]) else {
                k += 1;
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            // Scan past generics / where clause to the body `{`, or bail
            // at `;` (unit struct) / `(` at angle depth 0 (tuple struct).
            let mut j = k + 2;
            let mut angle = 0i32;
            let mut body_open: Option<usize> = None;
            while j < code.len() {
                let tt = &toks[code[j]];
                let prev = &toks[code[j - 1]];
                if tt.is_punct('<') {
                    angle += 1;
                } else if tt.is_punct('>') && !prev.is_punct('-') {
                    angle -= 1;
                } else if angle == 0 {
                    if tt.is_punct('{') {
                        body_open = Some(j);
                        break;
                    }
                    if tt.is_punct(';') || tt.is_punct('(') {
                        break;
                    }
                }
                j += 1;
            }
            let mut def = TypeDef {
                name: name_tok.text.clone(),
                line: t.line,
                is_enum,
                fields: Vec::new(),
            };
            if let Some(open) = body_open {
                k = parse_fields(toks, &code, open, is_enum, &mut def.fields);
            } else {
                k = j;
            }
            out.push(def);
            continue;
        }
        k += 1;
    }
    out
}

/// Parse the `{ ... }` body of a struct/enum starting at the opening brace
/// (code index `open`). Appends field/variant names to `fields` and
/// returns the code index just past the closing brace.
fn parse_fields(
    toks: &[Tok],
    code: &[usize],
    open: usize,
    is_enum: bool,
    fields: &mut Vec<FieldDef>,
) -> usize {
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    // A new field/variant name is expected right after `{` and after each
    // top-level comma.
    let mut expecting = true;
    let mut j = open;
    while j < code.len() {
        let t = &toks[code[j]];
        let prev = &toks[code[j - 1]];
        if t.is_punct('{') {
            brace += 1;
            // Struct-variant body (`Variant { x: u32 }`): its fields are
            // not the enum's own — skip to the matching `}`.
            if is_enum && brace == 2 {
                let mut depth = 1i32;
                j += 1;
                while j < code.len() && depth > 0 {
                    if toks[code[j]].is_punct('{') {
                        depth += 1;
                    } else if toks[code[j]].is_punct('}') {
                        depth -= 1;
                    }
                    j += 1;
                }
                brace -= 1;
                continue;
            }
        } else if t.is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return j + 1;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !prev.is_punct('-') {
            angle = (angle - 1).max(0);
        } else if t.is_punct(',') && brace == 1 && paren == 0 && bracket == 0 && angle == 0 {
            expecting = true;
        } else if t.is_punct('#') && brace == 1 && expecting {
            // Field attribute `#[...]`: skip the bracketed group.
            if code.get(j + 1).is_some_and(|&n| toks[n].is_punct('[')) {
                let mut depth = 0i32;
                j += 1;
                while j < code.len() {
                    if toks[code[j]].is_punct('[') {
                        depth += 1;
                    } else if toks[code[j]].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
        } else if t.kind == TokKind::Ident
            && brace == 1
            && paren == 0
            && bracket == 0
            && angle == 0
            && expecting
        {
            if t.text == "pub" {
                // Visibility, possibly `pub(crate)` — the paren counters
                // handle the group; stay in `expecting` state.
            } else {
                fields.push(FieldDef {
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
                expecting = false;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn parse(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        parse_items(&toks, &mask)
    }

    #[test]
    fn free_fns_and_methods_get_owners() {
        let src = "
            fn free() { helper(); }
            struct S;
            impl S {
                fn method(&self) { self.other(); free(); }
                fn other(&self) {}
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
        ";
        let fns = parse(src);
        let names: Vec<String> = fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(names, ["free", "S::method", "S::other", "S::clone"]);
        let method = &fns[1];
        let callees: Vec<&str> = method.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(callees, ["other", "free"]);
        assert!(method.calls[0].method);
        assert!(!method.calls[1].method);
    }

    #[test]
    fn generic_impl_headers_resolve_owner() {
        let src = "
            impl<B: Backend + ?Sized> Backend for &mut B { fn go(&self) {} }
            impl<T: Iterator<Item = u8>> Wrapper<T> where T: Clone { fn w(&self) {} }
        ";
        let fns = parse(src);
        assert_eq!(fns[0].owner.as_deref(), Some("B"));
        assert_eq!(fns[1].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn trait_decls_without_bodies_are_bodyless() {
        let src = "
            trait T {
                fn decl(&self) -> u32;
                fn defaulted(&self) -> u32 { self.decl() }
            }
        ";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].calls.is_empty());
        assert_eq!(fns[1].calls[0].name, "decl");
        assert_eq!(fns[1].owner.as_deref(), Some("T"));
    }

    #[test]
    fn qualified_calls_carry_their_qualifier() {
        let src = "fn f() { Helper::build(); plain(); }";
        let fns = parse(src);
        assert_eq!(fns[0].calls[0].qual.as_deref(), Some("Helper"));
        assert_eq!(fns[0].calls[1].qual, None);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "
            fn live() {}
            #[test]
            fn t() { Some(1).unwrap(); }
        ";
        let fns = parse(src);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
    }

    fn types(src: &str) -> Vec<TypeDef> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        parse_types(&toks, &mask)
    }

    #[test]
    fn trait_impl_fns_carry_the_trait_name() {
        let src = "
            impl Snapshot for Lsq {
                fn save(&self) {}
            }
            impl Lsq {
                fn inherent(&self) {}
            }
            impl<T: Clone> Wrap<T> for Holder<T> {
                fn wrap(&self) {}
            }
        ";
        let fns = parse(src);
        assert_eq!(fns[0].of_trait.as_deref(), Some("Snapshot"));
        assert_eq!(fns[0].owner.as_deref(), Some("Lsq"));
        assert_eq!(fns[1].of_trait, None);
        assert_eq!(fns[2].of_trait.as_deref(), Some("Wrap"));
        assert_eq!(fns[2].owner.as_deref(), Some("Holder"));
    }

    #[test]
    fn body_spans_cover_the_braces() {
        let src = "fn f() { inner(); }\nfn g();\n";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let fns = parse_items(&toks, &mask);
        let (start, end) = fns[0].body.expect("f has a body");
        assert!(toks[start].is_punct('{'));
        assert!(toks[end].is_punct('}'));
        assert!(start < end);
        assert!(fns[1].body.is_none(), "bodyless decl has no span");
    }

    #[test]
    fn struct_fields_are_parsed_with_lines() {
        let src = "
            /// Docs.
            #[derive(Debug, Clone)]
            pub struct Lsq {
                cfg: LsqConfig,
                /// Comment between fields.
                pub lines: LruBuffer,
                #[allow(dead_code)]
                last: Option<(ReqId, Time)>,
                map: BTreeMap<u64, Vec<u8>>,
                arr: [u8; 4],
                cb: fn(u32) -> u32,
            }
        ";
        let defs = types(src);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "Lsq");
        assert!(!defs[0].is_enum);
        let names: Vec<&str> = defs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["cfg", "lines", "last", "map", "arr", "cb"]);
        assert_eq!(defs[0].fields[0].line, 5);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let src = "struct A;\nstruct B(u32, Vec<u8>);\nstruct C { x: u32 }\n";
        let defs = types(src);
        assert_eq!(defs.len(), 3);
        assert!(defs[0].fields.is_empty());
        assert!(defs[1].fields.is_empty());
        assert_eq!(defs[2].fields.len(), 1);
    }

    #[test]
    fn enum_variants_are_fields_struct_variant_interiors_are_not() {
        let src = "
            pub enum Command {
                Open { sid: u64, kind: BackendKind },
                Batch(Vec<u8>),
                Close,
                Tagged = 3,
            }
        ";
        let defs = types(src);
        assert!(defs[0].is_enum);
        let names: Vec<&str> = defs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["Open", "Batch", "Close", "Tagged"]);
    }

    #[test]
    fn pub_crate_visibility_does_not_eat_the_field_name() {
        let src = "struct S { pub(crate) inner: u32, pub(in crate::x) other: u64 }\n";
        let defs = types(src);
        let names: Vec<&str> = defs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["inner", "other"]);
    }

    #[test]
    fn test_masked_types_are_skipped() {
        let src = "
            struct Live { x: u32 }
            #[cfg(test)]
            mod tests {
                struct TestOnly { y: u32 }
            }
        ";
        let defs = types(src);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "Live");
    }

    #[test]
    fn nested_fn_bodies_attribute_calls_to_innermost() {
        let src = "
            fn outer() {
                fn inner() { deep(); }
                shallow();
            }
        ";
        let fns = parse(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["shallow"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["deep"]
        );
    }
}
