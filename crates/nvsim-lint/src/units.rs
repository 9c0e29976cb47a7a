//! Unit-domain dataflow analysis (v4): infer a physical unit for values
//! flowing through simulation code and catch cross-domain arithmetic.
//!
//! The paper's entire contribution is a timing model — Table I latency
//! parameters, address-interleaving geometry, line/page bookkeeping — so
//! the costliest *silent* bug class is unit confusion: nanoseconds added
//! to cycles, a physical address used as a line index, a queue depth
//! compared against a byte count. All of these type-check (`u64` on both
//! sides) and produce plausible-looking CSVs.
//!
//! The engine is intra-procedural and token-level, like the rest of the
//! crate: for every function body it
//!
//!   * classifies *operands* — postfix chains of path segments, field
//!     accesses, method calls, index and paren groups — into a unit
//!     domain ([`Unit`]): `Ns`, `Cycles`, `Bytes`, `Lines`, `Pages`,
//!     `Addr`, or `Count`,
//!   * seeds units from identifier suffixes (`_ns`, `_cycles`,
//!     `_bytes`, ...), known constructors/accessors (`.as_ns()`,
//!     `.line_index()`, `CACHE_LINE`, `PAGE_SIZE`), function parameters,
//!     and `let` bindings (propagated sequentially through the body,
//!     with one level of `*`/`/` product/ratio folding),
//!   * records every `+`/`-`/compare/assign site whose operand units
//!     could conflict as a [`UnitOp`] *fact*; sites whose operand is a
//!     workspace function call are resolved later against the workspace
//!     [`FnUnit`] summary map (same qualified-name narrowing as the lock
//!     graph), so the per-file pass needs no other file and the cross-file
//!     pass runs over the collected facts, exactly like R12/R14.
//!
//! Four rules ride on the engine (firing logic in [`crate::rules`]):
//! R15 `unit-mismatch` and R16 `addr-domain` fire at aggregation time
//! from [`UnitOp`] facts; R17 `timing-literal-provenance` and R18
//! `overflow-policy` are purely local and fire from [`LocalFinding`]s.
//!
//! Inference is deliberately conservative: any operand the walker cannot
//! classify is `Unknown`, and `Unknown` never produces a finding. The
//! lattice is flat — there is no subtyping between domains; `Count`
//! (dimensionless multiplicity) combines with any domain under `*`/`/`
//! but conflicts under `+`/`-`/compare.

use crate::items::FnItem;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Unit domains of the flat inference lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Wall-of-simulation time as a raw number (ns/ps/us extractions).
    Ns,
    /// Clock cycles (CPU, DDR, media).
    Cycles,
    /// Byte counts and sizes.
    Bytes,
    /// Cache-line indices/counts (64 B granularity).
    Lines,
    /// Page indices/counts (4 KB granularity).
    Pages,
    /// Raw physical/virtual addresses.
    Addr,
    /// Dimensionless multiplicities (lengths, entry counts, iterations).
    Count,
}

impl Unit {
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Cycles => "cycles",
            Unit::Bytes => "bytes",
            Unit::Lines => "lines",
            Unit::Pages => "pages",
            Unit::Addr => "addr",
            Unit::Count => "count",
        }
    }
}

/// Classify an identifier by its trailing underscore-segment.
///
/// The *last* segment decides (`wpq_latency_ns` → `Ns`). Names
/// containing `_per_` are ratios and classify as `Count` regardless of
/// their trailing segment (`lines_per_page` is not a page count).
pub fn suffix_unit(name: &str) -> Option<Unit> {
    if name.contains("_per_") {
        return Some(Unit::Count);
    }
    let last = name.rsplit('_').next().unwrap_or(name);
    let last_lower = last.to_ascii_lowercase();
    Some(match last_lower.as_str() {
        "ns" | "ps" | "us" | "ms" | "nanos" => Unit::Ns,
        "cycles" | "cycle" => Unit::Cycles,
        "bytes" => Unit::Bytes,
        "lines" => Unit::Lines,
        "pages" => Unit::Pages,
        "addr" | "address" | "vaddr" | "paddr" => Unit::Addr,
        "count" | "cnt" | "iters" | "reps" | "entries" => Unit::Count,
        _ => return None,
    })
}

/// Known constants with fixed unit domains (`nvsim_types::addr`
/// vocabulary; suffix-named consts like `READ_NS` classify via
/// [`suffix_unit`] on their lowercased name instead).
fn const_unit(name: &str) -> Option<Unit> {
    match name {
        "CACHE_LINE" | "CACHE_LINE_U32" | "PAGE_SIZE" => Some(Unit::Bytes),
        _ => None,
    }
}

/// Known method/accessor return units — workspace vocabulary calls the
/// summary map should not have to resolve.
fn method_unit(name: &str) -> Option<Unit> {
    Some(match name {
        "as_ns" | "as_ns_f64" | "as_ps" | "as_us_f64" | "as_ms_f64" | "as_secs_f64" => Unit::Ns,
        "line_index" => Unit::Lines,
        "page_index" => Unit::Pages,
        "raw" => Unit::Addr,
        "len" | "capacity" => Unit::Count,
        "blocks_touched" | "block_index" => Unit::Count,
        "offset_in" => Unit::Bytes,
        _ => return None,
    })
}

/// How an operand's unit was decided — carried into finding evidence.
#[derive(Debug, Clone)]
pub enum Operand {
    /// Locally resolved; the string is the provenance
    /// (``"suffix `_ns`"``, ``"accessor `.as_ps()`"``, ...).
    Known(Unit, String),
    /// A call into (possibly) workspace code, resolved against the
    /// [`FnUnit`] summary map at aggregation time.
    Call { name: String, qual: Option<String> },
    /// A bare numeric literal (value kept as text).
    Literal(String),
    /// Not classifiable — never produces a finding.
    Unknown,
}

impl Operand {
    fn is_resolvable(&self) -> bool {
        matches!(self, Operand::Known(..) | Operand::Call { .. })
    }
}

/// Which rule an operator fact feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// R15: `+`, `-`, comparisons, `=`/`+=`/`-=`, struct-literal `:`.
    Arith,
    /// R16: `>>`/`<<`/`&`/`/`/`%` against a bare geometry literal.
    AddrCross,
}

/// One recorded operator site (a workspace fact; firing happens in the
/// aggregation pass so call operands can be resolved cross-file).
#[derive(Debug, Clone)]
pub struct UnitOp {
    pub kind: OpKind,
    /// Operator display form (`"+"`, `"<="`, `">>"`).
    pub op: String,
    pub line: u32,
    pub col: u32,
    pub lhs: Operand,
    pub rhs: Operand,
    /// Compact source rendering of each operand, for evidence chains.
    pub lhs_text: String,
    pub rhs_text: String,
}

/// Return-unit summary for one workspace function, inferred from its
/// name; feeds cross-file call-operand resolution.
#[derive(Debug, Clone)]
pub struct FnUnit {
    pub name: String,
    pub owner: Option<String>,
    pub unit: Unit,
}

/// A per-file R17/R18 finding site reported by the local pass.
#[derive(Debug, Clone)]
pub struct LocalFinding {
    pub rule: LocalRule,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalRule {
    TimingLiteral,
    OverflowPolicy,
}

/// Everything the unit pass produces for one file.
#[derive(Debug, Default)]
pub struct UnitFacts {
    pub ops: Vec<UnitOp>,
    pub fn_units: Vec<FnUnit>,
    pub local: Vec<LocalFinding>,
}

/// Geometry literals of the line/page interleaving family: shifting,
/// masking, or dividing an address-domain value by one of these is a
/// bare-literal domain crossing (R16).
const GEOMETRY_LITERALS: [u64; 6] = [6, 12, 63, 64, 4095, 4096];

/// Units that live in the address-geometry family for R16.
pub fn addr_family(u: Unit) -> bool {
    matches!(u, Unit::Addr | Unit::Bytes | Unit::Lines | Unit::Pages)
}

fn is_time_ctor_qual(name: &str) -> bool {
    matches!(name, "Time" | "Freq")
}

fn is_time_ctor(name: &str) -> bool {
    name.starts_with("from_") || matches!(name, "mhz" | "ghz" | "khz")
}

/// Time-flavoured suffixes for R17's field-init/assignment form.
fn timing_suffix(name: &str) -> bool {
    matches!(suffix_unit(name), Some(Unit::Ns | Unit::Cycles))
}

/// Integer-literal text → value. Handles `_` separators, `0x`/`0o`/`0b`
/// prefixes, type suffixes, and float forms (truncated).
pub fn literal_value(text: &str) -> Option<u64> {
    let s: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&digits, 16).ok();
    }
    if let Some(oct) = s.strip_prefix("0o") {
        let digits: String = oct.chars().take_while(|c| c.is_ascii_digit()).collect();
        return u64::from_str_radix(&digits, 8).ok();
    }
    if let Some(bin) = s.strip_prefix("0b") {
        let digits: String = bin.chars().take_while(|&c| c == '0' || c == '1').collect();
        return u64::from_str_radix(&digits, 2).ok();
    }
    if s.contains('.') || s.contains('e') || s.contains('E') {
        let num: String = s
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+'))
            .collect();
        return num.parse::<f64>().ok().map(|f| f as u64);
    }
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Primitive numeric type names, skipped in `as` cast chains — a cast
/// never changes the unit domain.
fn is_prim_ty(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
    )
}

fn is_kw(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "in"
            | "as"
            | "fn"
            | "mut"
            | "ref"
            | "move"
            | "impl"
            | "dyn"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "const"
            | "static"
            | "struct"
            | "enum"
            | "trait"
            | "unsafe"
            | "await"
            | "true"
            | "false"
    )
}

/// One analyzed operand: descriptor plus covered code-index span.
struct Walked {
    desc: Operand,
    start: usize,
    end: usize,
}

/// Token-level expression walker over the non-comment token stream.
pub struct Analyzer<'a> {
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Parallel to `code`: test-region mask.
    masked: Vec<bool>,
}

impl<'a> Analyzer<'a> {
    pub fn new(toks: &'a [Tok], mask: &[bool]) -> Self {
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let masked = code.iter().map(|&i| mask[i]).collect();
        Analyzer { toks, code, masked }
    }

    fn tok(&self, k: usize) -> &Tok {
        &self.toks[self.code[k]]
    }

    /// Map a raw token index to the code index at or after it.
    fn code_pos(&self, raw: usize) -> usize {
        self.code.partition_point(|&i| i < raw)
    }

    fn is_value_end(&self, k: usize) -> bool {
        let t = self.tok(k);
        match t.kind {
            TokKind::Ident => !is_kw(&t.text) || t.text == "self",
            TokKind::Num => true,
            TokKind::Punct => t.is_punct(')') || t.is_punct(']') || t.is_punct('?'),
            _ => false,
        }
    }

    fn is_value_start(&self, k: usize) -> bool {
        let t = self.tok(k);
        match t.kind {
            TokKind::Ident => !is_kw(&t.text) || t.text == "self",
            TokKind::Num => true,
            TokKind::Punct => {
                t.is_punct('(')
                    || t.is_punct('-')
                    || t.is_punct('&')
                    || t.is_punct('*')
                    || t.is_punct('!')
            }
            _ => false,
        }
    }

    /// Match a bracket pair backwards: `k` sits on the closer; returns
    /// the opener's code index.
    fn match_back(&self, k: usize, open: char, close: char) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = k;
        loop {
            let t = self.tok(j);
            if t.is_punct(close) {
                depth += 1;
            } else if t.is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j = j.checked_sub(1)?;
        }
    }

    /// Match a bracket pair forwards: `k` sits on the opener; returns
    /// the closer's code index.
    fn match_fwd(&self, k: usize, open: char, close: char) -> Option<usize> {
        let mut depth = 0i32;
        for j in k..self.code.len() {
            let t = self.tok(j);
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Walk a postfix chain *backwards* from code index `k` (the last
    /// token of the operand). Handles field/method chains, `Q::path`
    /// segments, call/index groups, and skips `as <ty>` casts.
    fn walk_back(&self, mut k: usize) -> Option<Walked> {
        let end = k;
        loop {
            let t = self.tok(k);
            if t.kind == TokKind::Ident
                && is_prim_ty(&t.text)
                && k >= 2
                && self.tok(k - 1).is_ident("as")
            {
                k -= 2;
                continue;
            }
            if t.is_punct('?') {
                k = k.checked_sub(1)?;
                continue;
            }
            break;
        }
        // The rightmost meaningful element decides the unit.
        let mut rightmost: Option<(usize, bool)> = None;
        loop {
            let t = self.tok(k);
            if t.is_punct(')') || t.is_punct(']') {
                let (open, close) = if t.is_punct(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let o = self.match_back(k, open, close)?;
                if o == 0 {
                    return Some(Walked {
                        desc: Operand::Unknown,
                        start: o,
                        end,
                    });
                }
                let prev = self.tok(o - 1);
                if prev.kind == TokKind::Ident && !is_kw(&prev.text) {
                    // Call or index with an ident base.
                    if rightmost.is_none() {
                        rightmost = Some((o - 1, t.is_punct(')')));
                    }
                    k = o - 1;
                } else {
                    // Bare parenthesized/array group terminates the chain.
                    return Some(Walked {
                        desc: Operand::Unknown,
                        start: o,
                        end,
                    });
                }
            } else if (t.kind == TokKind::Ident && !is_kw(&t.text)) || t.kind == TokKind::Num {
                if rightmost.is_none() {
                    rightmost = Some((k, false));
                }
            } else {
                return None;
            }
            if k == 0 {
                break;
            }
            let p = self.tok(k - 1);
            if p.is_punct('.') {
                if k < 2 {
                    break;
                }
                k -= 2;
            } else if p.is_punct(':') && k >= 2 && self.tok(k - 2).is_punct(':') {
                if k < 3 {
                    break;
                }
                k -= 3;
            } else {
                break;
            }
        }
        let start = k;
        let (ri, is_call) = rightmost?;
        Some(Walked {
            desc: self.classify_element(ri, is_call),
            start,
            end,
        })
    }

    /// Walk a postfix chain *forwards* from code index `k` (first token
    /// of the operand). Mirrors [`Self::walk_back`].
    fn walk_fwd(&self, mut k: usize) -> Option<Walked> {
        let start = k;
        // Unary prefixes.
        loop {
            if k >= self.code.len() {
                return None;
            }
            let t = self.tok(k);
            if t.is_punct('-') || t.is_punct('!') || t.is_punct('&') || t.is_punct('*') {
                k += 1;
                continue;
            }
            if t.is_ident("mut") {
                k += 1;
                continue;
            }
            break;
        }
        let mut rightmost: Option<(usize, bool)> = None;
        let t = self.tok(k);
        if t.is_punct('(') {
            // Parenthesized group: consume it, stay Unknown.
            k = self.match_fwd(k, '(', ')')?;
        } else if (t.kind == TokKind::Ident && !is_kw(&t.text)) || t.kind == TokKind::Num {
            rightmost = Some((k, false));
        } else {
            return None;
        }
        // Postfix continuations: `(..)`, `[..]`, `.seg`, `::seg`, `?`,
        // `as ty`.
        while self.code.get(k + 1).is_some() {
            let next = self.tok(k + 1);
            if next.is_punct('(') {
                if let Some((ri, _)) = rightmost {
                    rightmost = Some((ri, true));
                }
                k = self.match_fwd(k + 1, '(', ')')?;
                continue;
            }
            if next.is_punct('[') {
                k = self.match_fwd(k + 1, '[', ']')?;
                continue;
            }
            if next.is_punct('?') {
                k += 1;
                continue;
            }
            if next.is_ident("as")
                && self
                    .code
                    .get(k + 2)
                    .is_some_and(|_| is_prim_ty(&self.tok(k + 2).text))
            {
                k += 2;
                continue;
            }
            if next.is_punct('.')
                && self
                    .code
                    .get(k + 2)
                    .is_some_and(|_| self.tok(k + 2).kind == TokKind::Ident)
            {
                k += 2;
                rightmost = Some((k, false));
                continue;
            }
            if next.is_punct('.')
                && self
                    .code
                    .get(k + 2)
                    .is_some_and(|_| self.tok(k + 2).kind == TokKind::Num)
            {
                // Tuple index `.0`.
                k += 2;
                rightmost = None;
                continue;
            }
            if next.is_punct(':')
                && self
                    .code
                    .get(k + 2)
                    .is_some_and(|_| self.tok(k + 2).is_punct(':'))
                && self
                    .code
                    .get(k + 3)
                    .is_some_and(|_| self.tok(k + 3).kind == TokKind::Ident)
            {
                k += 3;
                rightmost = Some((k, false));
                continue;
            }
            break;
        }
        let end = k;
        let desc = match rightmost {
            Some((ri, is_call)) => self.classify_element(ri, is_call),
            None => Operand::Unknown,
        };
        Some(Walked { desc, start, end })
    }

    /// Classify the deciding (rightmost) element of a chain.
    fn classify_element(&self, ri: usize, is_call: bool) -> Operand {
        let rt = self.tok(ri);
        if rt.kind == TokKind::Num {
            return Operand::Literal(rt.text.clone());
        }
        let name = rt.text.as_str();
        if is_call {
            if let Some(u) = method_unit(name) {
                return Operand::Known(u, format!("accessor `.{name}()`"));
            }
            // Everything else defers to the workspace fn-summary map at
            // aggregation time: a suffix-named call (`media_read_ns()`)
            // classifies only if such a fn actually exists in the linted
            // workspace, so calls into external code stay unresolved
            // rather than guessed at.
            let qual = if ri >= 3
                && self.tok(ri - 1).is_punct(':')
                && self.tok(ri - 2).is_punct(':')
                && self.tok(ri - 3).kind == TokKind::Ident
            {
                Some(self.tok(ri - 3).text.clone())
            } else {
                None
            };
            return Operand::Call {
                name: name.to_string(),
                qual,
            };
        }
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            if let Some(u) = const_unit(name) {
                return Operand::Known(u, format!("const `{name}`"));
            }
            // SCREAMING_CASE consts with unit suffixes (`READ_NS`).
            if name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                if let Some(u) = suffix_unit(&name.to_ascii_lowercase()) {
                    return Operand::Known(u, format!("const suffix `{name}`"));
                }
            }
            return Operand::Unknown;
        }
        match suffix_unit(name) {
            Some(u) => Operand::Known(u, format!("suffix `{name}`")),
            None => Operand::Unknown,
        }
    }

    /// Compact source rendering of a code-index span, for evidence.
    fn span_text(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        let last = end.min(start + 11);
        for k in start..=last {
            let piece = self.tok(k).text.as_str();
            let glue = !out.is_empty()
                && out
                    .chars()
                    .last()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                && piece
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if glue {
                out.push(' ');
            }
            out.push_str(piece);
        }
        if end > last {
            out.push('…');
        }
        out
    }

    /// Refine a walked operand against the local binding map: a bare
    /// single-ident chain with no suffix takes the unit its `let`
    /// binding inferred.
    fn refine(&self, w: &Walked, bindings: &BTreeMap<String, (Unit, String)>) -> Operand {
        if matches!(w.desc, Operand::Unknown) && w.start == w.end {
            let t = self.tok(w.start);
            if t.kind == TokKind::Ident {
                if let Some((u, prov)) = bindings.get(&t.text) {
                    return Operand::Known(*u, prov.clone());
                }
            }
        }
        w.desc.clone()
    }

    /// Operand ending at `k`, with up to four levels of `*`/`/` folding
    /// to the left (`a * b` seen from `b`'s side).
    fn operand_back(
        &self,
        k: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
    ) -> Option<(Operand, usize, usize)> {
        let w = self.walk_back(k)?;
        let mut desc = self.refine(&w, bindings);
        let mut start = w.start;
        let end = w.end;
        for _ in 0..4 {
            if start == 0 {
                break;
            }
            let p = self.tok(start - 1);
            let mul = p.is_punct('*');
            let div = p.is_punct('/');
            if !mul && !div {
                break;
            }
            if start < 2 {
                break;
            }
            let Some(other) = self.walk_back(start - 2) else {
                desc = Operand::Unknown;
                break;
            };
            let other_desc = self.refine(&other, bindings);
            desc = if mul {
                combine_mul(&other_desc, &desc)
            } else {
                combine_div(&other_desc, &desc)
            };
            start = other.start;
        }
        Some((desc, start, end))
    }

    /// Operand starting at `k`, with up to four levels of `*`/`/`
    /// folding to the right.
    fn operand_fwd(
        &self,
        k: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
    ) -> Option<(Operand, usize, usize)> {
        let w = self.walk_fwd(k)?;
        let mut desc = self.refine(&w, bindings);
        let start = w.start;
        let mut end = w.end;
        for _ in 0..4 {
            let Some(p) = self.code.get(end + 1).map(|_| self.tok(end + 1)) else {
                break;
            };
            let mul = p.is_punct('*');
            let div = p.is_punct('/');
            if !mul && !div {
                break;
            }
            let Some(other) = self.walk_fwd(end + 2) else {
                desc = Operand::Unknown;
                break;
            };
            let other_desc = self.refine(&other, bindings);
            desc = if mul {
                combine_mul(&desc, &other_desc)
            } else {
                combine_div(&desc, &other_desc)
            };
            end = other.end;
        }
        Some((desc, start, end))
    }

    /// `const`/`static` item spans (code indices, keyword to `;`) —
    /// their initializers are the sanctioned home for timing literals,
    /// so R17 never looks inside them.
    fn const_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut k = 0usize;
        while k < self.code.len() {
            let t = self.tok(k);
            if (t.is_ident("const") || t.is_ident("static"))
                && self.code.get(k + 1).is_some_and(|_| {
                    self.tok(k + 1).kind == TokKind::Ident && !self.tok(k + 1).is_ident("fn")
                })
            {
                let mut depth = 0i32;
                let mut j = k + 1;
                let mut end = None;
                while j < self.code.len() {
                    let tt = self.tok(j);
                    if tt.is_punct('(') || tt.is_punct('[') {
                        depth += 1;
                    } else if tt.is_punct(')') || tt.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 {
                        if tt.is_punct(';') {
                            end = Some(j);
                            break;
                        }
                        // A block at depth 0 means this was a `const`
                        // generic param or similar — not a const item.
                        if tt.is_punct('{') {
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(e) = end {
                    spans.push((k, e));
                    k = e + 1;
                    continue;
                }
            }
            k += 1;
        }
        spans
    }

    /// R17a: literal arguments to `Time::from_*` / `Freq::{mhz,ghz,khz}`
    /// outside const items and test regions.
    fn scan_time_ctors(&self, const_spans: &[(usize, usize)], out: &mut UnitFacts) {
        for k in 0..self.code.len() {
            if self.masked[k] {
                continue;
            }
            if const_spans.iter().any(|&(s, e)| k >= s && k <= e) {
                continue;
            }
            let t = self.tok(k);
            if t.kind != TokKind::Ident || !is_time_ctor_qual(&t.text) {
                continue;
            }
            if k + 6 >= self.code.len()
                || !self.tok(k + 1).is_punct(':')
                || !self.tok(k + 2).is_punct(':')
                || self.tok(k + 3).kind != TokKind::Ident
                || !is_time_ctor(&self.tok(k + 3).text)
                || !self.tok(k + 4).is_punct('(')
                || self.tok(k + 5).kind != TokKind::Num
                || !self.tok(k + 6).is_punct(')')
            {
                continue;
            }
            let lit = &self.tok(k + 5);
            if literal_value(&lit.text).is_none_or(|v| v == 0) {
                continue;
            }
            out.local.push(LocalFinding {
                rule: LocalRule::TimingLiteral,
                line: lit.line,
                col: lit.col,
                message: format!(
                    "timing literal `{}` fed to `{}::{}` on a simulation path; \
                     hoist it into a named const (per-crate `params` module) or a config field \
                     so the Table I parameter has exactly one home",
                    lit.text,
                    t.text,
                    self.tok(k + 3).text
                ),
            });
        }
    }

    /// Extract suffix-classified parameter units for one fn item.
    fn params_of(&self, item: &FnItem) -> BTreeMap<String, (Unit, String)> {
        let mut params = BTreeMap::new();
        // Locate the `fn` keyword token for this item.
        let mut fn_idx = None;
        for k in 0..self.code.len() {
            let t = self.tok(k);
            if t.is_ident("fn")
                && t.line == item.line
                && t.col == item.col
                && self
                    .code
                    .get(k + 1)
                    .is_some_and(|_| self.tok(k + 1).text == item.name)
            {
                fn_idx = Some(k);
                break;
            }
        }
        let Some(fk) = fn_idx else {
            return params;
        };
        let mut k = fk + 2;
        // Skip a generics list.
        if self.code.get(k).is_some_and(|_| self.tok(k).is_punct('<')) {
            let mut depth = 0i32;
            while k < self.code.len() {
                let t = self.tok(k);
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if !self.code.get(k).is_some_and(|_| self.tok(k).is_punct('(')) {
            return params;
        }
        let Some(close) = self.match_fwd(k, '(', ')') else {
            return params;
        };
        // A param name is the ident directly after `(` or a depth-0 `,`,
        // modulo `&`/`mut`/lifetime noise, confirmed by a following `:`.
        let mut at_boundary = true;
        let mut depth = 0i32;
        let mut j = k + 1;
        while j < close {
            let t = self.tok(j);
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                at_boundary = true;
                j += 1;
                continue;
            }
            if at_boundary && depth == 0 {
                if t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime {
                    j += 1;
                    continue;
                }
                if t.kind == TokKind::Ident
                    && !is_kw(&t.text)
                    && self
                        .code
                        .get(j + 1)
                        .is_some_and(|_| self.tok(j + 1).is_punct(':'))
                    && !self
                        .code
                        .get(j + 2)
                        .is_some_and(|_| self.tok(j + 2).is_punct(':'))
                {
                    if let Some(u) = suffix_unit(&t.text) {
                        params.insert(t.text.clone(), (u, format!("param `{}`", t.text)));
                    }
                }
                at_boundary = false;
            }
            j += 1;
        }
        params
    }

    /// Loop body spans (code indices between the loop's braces) inside
    /// `[b0, b1]`, for R18's accumulation check.
    fn loop_spans(&self, b0: usize, b1: usize) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut k = b0;
        while k <= b1 {
            let t = self.tok(k);
            if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
                // Find the loop body `{` at paren/bracket depth 0.
                let mut depth = 0i32;
                let mut j = k + 1;
                while j <= b1 {
                    let tt = self.tok(j);
                    if tt.is_punct('(') || tt.is_punct('[') {
                        depth += 1;
                    } else if tt.is_punct(')') || tt.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && tt.is_punct('{') {
                        if let Some(close) = self.match_fwd(j, '{', '}') {
                            spans.push((j, close));
                        }
                        break;
                    }
                    j += 1;
                }
            }
            k += 1;
        }
        spans
    }

    /// R18: an unchecked compound accumulation inside a loop whose RHS
    /// multiplies a unit-carrying quantity.
    fn check_overflow(
        &self,
        k: usize,
        op: &str,
        b1: usize,
        loops: &[(usize, usize)],
        bindings: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        if !loops.iter().any(|&(s, e)| k > s && k < e) {
            return;
        }
        // Statement extent: to the `;` at relative depth 0.
        let mut depth = 0i32;
        let mut stmt_end = b1;
        for j in k..=b1 {
            let t = self.tok(j);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    stmt_end = j;
                    break;
                }
            } else if depth == 0 && t.is_punct(';') {
                stmt_end = j;
                break;
            }
        }
        // An explicit overflow policy in the statement satisfies the rule.
        for j in k..stmt_end {
            let t = self.tok(j);
            if t.kind == TokKind::Ident
                && (t.text.starts_with("saturating_")
                    || t.text.starts_with("checked_")
                    || t.text.starts_with("wrapping_")
                    || t.text.starts_with("overflowing_"))
            {
                return;
            }
        }
        // Products routed through a saturating conversion boundary are
        // policy-compliant: `Time::from_ns_f64(x * y)` clamps at the
        // float→int cast (Rust `as` saturates) before the accumulator
        // sees the value, and the `Time::from_*`/`Freq::*` constructors
        // are the sanctioned unit boundaries. Collect their call spans
        // so `*` inside them is skipped.
        let mut conv_spans: Vec<(usize, usize)> = Vec::new();
        for j in k..stmt_end {
            let t = self.tok(j);
            if t.kind == TokKind::Ident
                && (t.text.starts_with("from_") || is_time_ctor(&t.text))
                && j < b1
                && self.tok(j + 1).is_punct('(')
            {
                if let Some(close) = self.match_fwd(j + 1, '(', ')') {
                    conv_spans.push((j + 1, close));
                }
            }
        }
        // Look for a binary `*` in the RHS whose operand carries a unit.
        for j in (k + 2)..stmt_end {
            let t = self.tok(j);
            if !t.is_punct('*') || j == 0 || j + 1 > b1 {
                continue;
            }
            if conv_spans.iter().any(|&(s, e)| j > s && j < e) {
                continue;
            }
            if !self.is_value_end(j - 1) || !self.is_value_start(j + 1) {
                continue;
            }
            let lhs = self.operand_back(j - 1, bindings).map(|(d, _, _)| d);
            let rhs = self.operand_fwd(j + 1, bindings).map(|(d, _, _)| d);
            let unit = [lhs, rhs].into_iter().flatten().find_map(|d| match d {
                Operand::Known(u, _) => Some(u),
                _ => None,
            });
            if let Some(u) = unit {
                let here = self.tok(k);
                out.local.push(LocalFinding {
                    rule: LocalRule::OverflowPolicy,
                    line: here.line,
                    col: here.col,
                    message: format!(
                        "unchecked `{op}` accumulation of a loop-carried product \
                         scaling with a `{}`-unit quantity; use saturating_/checked_ \
                         arithmetic or add a justified allow",
                        u.name()
                    ),
                });
                return;
            }
        }
    }

    /// Handle one `let` statement starting at the `let` keyword.
    /// Updates the binding map, fires local R17, records a mismatch op,
    /// and returns the `=` code index it consumed (if any).
    fn handle_let(
        &self,
        k: usize,
        b1: usize,
        bindings: &mut BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) -> Option<usize> {
        let mut n = k + 1;
        if self
            .code
            .get(n)
            .is_some_and(|_| self.tok(n).is_ident("mut"))
        {
            n += 1;
        }
        let name_tok = self.code.get(n).map(|_| self.tok(n))?;
        if name_tok.kind != TokKind::Ident || is_kw(&name_tok.text) {
            return None; // destructuring / pattern lets are skipped
        }
        let name = name_tok.text.clone();
        let mut eq = None;
        let m = n + 1;
        let mt = self.code.get(m).map(|_| self.tok(m))?;
        if mt.is_punct('=')
            && !self
                .code
                .get(m + 1)
                .is_some_and(|_| self.tok(m + 1).is_punct('='))
        {
            eq = Some(m);
        } else if mt.is_punct(':')
            && !self
                .code
                .get(m + 1)
                .is_some_and(|_| self.tok(m + 1).is_punct(':'))
        {
            // Typed binding: scan past the type to the `=` (or give up
            // at `;`).
            let mut depth = 0i32;
            let mut j = m + 1;
            while j <= b1 {
                let tt = self.tok(j);
                if tt.is_punct('(') || tt.is_punct('[') {
                    depth += 1;
                } else if tt.is_punct(')') || tt.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 {
                    if tt.is_punct(';') {
                        break;
                    }
                    if tt.is_punct('=')
                        && !self
                            .code
                            .get(j + 1)
                            .is_some_and(|_| self.tok(j + 1).is_punct('='))
                        && !self.tok(j - 1).is_punct('<')
                        && !self.tok(j - 1).is_punct('>')
                        && !self.tok(j - 1).is_punct('!')
                    {
                        eq = Some(j);
                        break;
                    }
                }
                j += 1;
            }
        }
        let eq = eq?;
        let (rhs, rs, re) = self.operand_fwd(eq + 1, bindings)?;
        let named_u = suffix_unit(&name);
        // R17b: a timing-suffixed binding initialized from a bare literal.
        if timing_suffix(&name) {
            if let Operand::Literal(lit) = &rhs {
                if literal_value(lit).is_some_and(|v| v != 0) {
                    let lt = self.tok(rs);
                    out.local.push(LocalFinding {
                        rule: LocalRule::TimingLiteral,
                        line: lt.line,
                        col: lt.col,
                        message: format!(
                            "timing literal `{lit}` assigned to `{name}` on a simulation \
                             path; hoist it into a named const (per-crate `params` module) \
                             or a config field"
                        ),
                    });
                }
            }
        }
        // R15 via the binding's declared suffix.
        if let Some(nu) = named_u {
            if rhs.is_resolvable() && !self.masked[k] {
                let differs = match &rhs {
                    Operand::Known(u, _) => *u != nu,
                    _ => true, // Call: let aggregation decide
                };
                if differs {
                    let here = self.tok(eq);
                    out.ops.push(UnitOp {
                        kind: OpKind::Arith,
                        op: "=".to_string(),
                        line: here.line,
                        col: here.col,
                        lhs: Operand::Known(nu, format!("suffix `{name}`")),
                        rhs: rhs.clone(),
                        lhs_text: name.clone(),
                        rhs_text: self.span_text(rs, re),
                    });
                }
            }
        }
        // Update the binding map: a declared suffix wins; otherwise the
        // RHS unit propagates.
        match (named_u, &rhs) {
            (Some(u), _) => {
                bindings.insert(name.clone(), (u, format!("suffix `{name}`")));
            }
            (None, Operand::Known(u, prov)) => {
                bindings.insert(name.clone(), (*u, format!("let `{name}` = {prov}")));
            }
            _ => {
                bindings.remove(&name);
            }
        }
        Some(eq)
    }

    /// Record an R15 candidate if both operands are resolvable and not
    /// trivially clean (two locals with the same known unit).
    fn record_arith(
        &self,
        k: usize,
        op: &str,
        lhs_k: usize,
        rhs_k: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        let Some((lhs, ls, le)) = self.operand_back(lhs_k, bindings) else {
            return;
        };
        let Some((rhs, rs, re)) = self.operand_fwd(rhs_k, bindings) else {
            return;
        };
        if !lhs.is_resolvable() || !rhs.is_resolvable() {
            return;
        }
        if let (Operand::Known(a, _), Operand::Known(b, _)) = (&lhs, &rhs) {
            if a == b {
                return;
            }
        }
        let here = self.tok(k);
        out.ops.push(UnitOp {
            kind: OpKind::Arith,
            op: op.to_string(),
            line: here.line,
            col: here.col,
            lhs,
            rhs,
            lhs_text: self.span_text(ls, le),
            rhs_text: self.span_text(rs, re),
        });
    }

    /// Record an R16 candidate: an address-family value hit with a bare
    /// geometry literal.
    fn record_cross(
        &self,
        k: usize,
        op: &str,
        lhs_k: usize,
        rhs_k: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        let Some(rw) = self.walk_fwd(rhs_k) else {
            return;
        };
        let Operand::Literal(lit) = &rw.desc else {
            return;
        };
        if !literal_value(lit).is_some_and(|v| GEOMETRY_LITERALS.contains(&v)) {
            return;
        }
        let Some(lw) = self.walk_back(lhs_k) else {
            return;
        };
        let lhs = self.refine(&lw, bindings);
        match &lhs {
            Operand::Known(u, _) if addr_family(*u) => {}
            Operand::Call { .. } => {}
            _ => return,
        }
        let here = self.tok(k);
        out.ops.push(UnitOp {
            kind: OpKind::AddrCross,
            op: op.to_string(),
            line: here.line,
            col: here.col,
            lhs,
            rhs: rw.desc.clone(),
            lhs_text: self.span_text(lw.start, lw.end),
            rhs_text: lit.clone(),
        });
    }

    /// Scan one fn body (code-index range between the braces).
    fn scan_body(
        &self,
        b0: usize,
        b1: usize,
        params: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        let mut bindings = params.clone();
        let loops = self.loop_spans(b0, b1);
        let mut let_eq: Vec<usize> = Vec::new();
        let mut k = b0;
        while k <= b1 {
            if self.masked[k] {
                k += 1;
                continue;
            }
            let t = self.tok(k);
            if t.is_ident("let") {
                if let Some(eq) = self.handle_let(k, b1, &mut bindings, out) {
                    let_eq.push(eq);
                }
                k += 1;
                continue;
            }
            if t.kind != TokKind::Punct {
                k += 1;
                continue;
            }
            let c = t.text.chars().next().unwrap_or(' ');
            let prev = |ch: char| k > b0 && self.tok(k - 1).is_punct(ch);
            let next = |ch: char| k < b1 && self.tok(k + 1).is_punct(ch);
            let val_before = k > b0 && self.is_value_end(k - 1);
            match c {
                '+' => {
                    if next('=') {
                        if val_before {
                            self.record_arith(k, "+=", k - 1, k + 2, &bindings, out);
                            self.check_overflow(k, "+=", b1, &loops, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if val_before {
                        self.record_arith(k, "+", k - 1, k + 1, &bindings, out);
                    }
                }
                '-' => {
                    if next('>') {
                        k += 2;
                        continue;
                    }
                    if next('=') {
                        if val_before {
                            self.record_arith(k, "-=", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if val_before && k < b1 && self.is_value_start(k + 1) {
                        self.record_arith(k, "-", k - 1, k + 1, &bindings, out);
                    }
                }
                '*' if next('=') && val_before => {
                    self.check_overflow(k, "*=", b1, &loops, &bindings, out);
                    k += 2;
                    continue;
                }
                '<' => {
                    if prev('<') {
                        k += 1;
                        continue;
                    }
                    if next('<') {
                        if val_before && k + 2 <= b1 && self.is_value_start(k + 2) {
                            self.record_cross(k, "<<", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if next('=') {
                        if val_before {
                            self.record_arith(k, "<=", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    // Generic-argument guard: `Type<..>` has an
                    // uppercase ident before the `<`.
                    let generic = k > b0
                        && self.tok(k - 1).kind == TokKind::Ident
                        && self
                            .tok(k - 1)
                            .text
                            .chars()
                            .next()
                            .is_some_and(|ch| ch.is_ascii_uppercase());
                    if val_before && !generic && k < b1 && self.is_value_start(k + 1) {
                        self.record_arith(k, "<", k - 1, k + 1, &bindings, out);
                    }
                }
                '>' => {
                    if prev('>') || prev('-') || prev('=') {
                        k += 1;
                        continue;
                    }
                    if next('>') {
                        if val_before && k + 2 <= b1 && self.is_value_start(k + 2) {
                            self.record_cross(k, ">>", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if next('=') {
                        if val_before {
                            self.record_arith(k, ">=", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if val_before && k < b1 && self.is_value_start(k + 1) {
                        self.record_arith(k, ">", k - 1, k + 1, &bindings, out);
                    }
                }
                '=' => {
                    if prev('=')
                        || prev('!')
                        || prev('<')
                        || prev('>')
                        || prev('+')
                        || prev('-')
                        || prev('*')
                        || prev('/')
                        || prev('%')
                        || prev('&')
                        || prev('|')
                        || prev('^')
                        || next('>')
                    {
                        k += 1;
                        continue;
                    }
                    if next('=') {
                        if val_before {
                            self.record_arith(k, "==", k - 1, k + 2, &bindings, out);
                        }
                        k += 2;
                        continue;
                    }
                    if let_eq.contains(&k) {
                        k += 1;
                        continue;
                    }
                    if val_before {
                        self.assign_site(k, b1, &bindings, out);
                    }
                }
                '!' if next('=') => {
                    if val_before {
                        self.record_arith(k, "!=", k - 1, k + 2, &bindings, out);
                    }
                    k += 2;
                    continue;
                }
                ':' => {
                    if prev(':') || next(':') {
                        k += 1;
                        continue;
                    }
                    self.field_init_site(k, b1, &bindings, out);
                }
                '&' => {
                    if prev('&') || next('&') || next('=') {
                        k += 1;
                        continue;
                    }
                    if val_before && k < b1 && self.is_value_start(k + 1) {
                        self.record_cross(k, "&", k - 1, k + 1, &bindings, out);
                    }
                }
                '/' => {
                    if next('=') {
                        k += 2;
                        continue;
                    }
                    if val_before && k < b1 && self.is_value_start(k + 1) {
                        self.record_cross(k, "/", k - 1, k + 1, &bindings, out);
                    }
                }
                '%' if val_before && k < b1 && self.is_value_start(k + 1) => {
                    self.record_cross(k, "%", k - 1, k + 1, &bindings, out);
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// Plain assignment `lhs = rhs`: R17b for timing-suffixed targets
    /// fed literals, R15 mismatch otherwise.
    fn assign_site(
        &self,
        k: usize,
        _b1: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        let Some(lw) = self.walk_back(k - 1) else {
            return;
        };
        let lhs = self.refine(&lw, bindings);
        let Some((rhs, rs, re)) = self.operand_fwd(k + 1, bindings) else {
            return;
        };
        if let (Operand::Known(u, prov), Operand::Literal(lit)) = (&lhs, &rhs) {
            if matches!(u, Unit::Ns | Unit::Cycles)
                && prov.starts_with("suffix")
                && literal_value(lit).is_some_and(|v| v != 0)
            {
                let lt = self.tok(rs);
                out.local.push(LocalFinding {
                    rule: LocalRule::TimingLiteral,
                    line: lt.line,
                    col: lt.col,
                    message: format!(
                        "timing literal `{lit}` assigned to `{}` on a simulation path; \
                         hoist it into a named const (per-crate `params` module) or a \
                         config field",
                        self.span_text(lw.start, lw.end)
                    ),
                });
                return;
            }
        }
        if !lhs.is_resolvable() || !rhs.is_resolvable() {
            return;
        }
        if let (Operand::Known(a, _), Operand::Known(b, _)) = (&lhs, &rhs) {
            if a == b {
                return;
            }
        }
        let here = self.tok(k);
        out.ops.push(UnitOp {
            kind: OpKind::Arith,
            op: "=".to_string(),
            line: here.line,
            col: here.col,
            lhs,
            rhs,
            lhs_text: self.span_text(lw.start, lw.end),
            rhs_text: self.span_text(rs, re),
        });
    }

    /// Struct-literal field init `name: expr` (only in `{`/`,` position):
    /// same checks as an assignment.
    fn field_init_site(
        &self,
        k: usize,
        _b1: usize,
        bindings: &BTreeMap<String, (Unit, String)>,
        out: &mut UnitFacts,
    ) {
        if k < 2
            || self.tok(k - 1).kind != TokKind::Ident
            || !(self.tok(k - 2).is_punct('{') || self.tok(k - 2).is_punct(','))
        {
            return;
        }
        let name = self.tok(k - 1).text.clone();
        let Some((rhs, rs, re)) = self.operand_fwd(k + 1, bindings) else {
            return;
        };
        if timing_suffix(&name) {
            if let Operand::Literal(lit) = &rhs {
                if literal_value(lit).is_some_and(|v| v != 0) {
                    let lt = self.tok(rs);
                    out.local.push(LocalFinding {
                        rule: LocalRule::TimingLiteral,
                        line: lt.line,
                        col: lt.col,
                        message: format!(
                            "timing literal `{lit}` initializes field `{name}` on a \
                             simulation path; hoist it into a named const (per-crate \
                             `params` module) or a config field"
                        ),
                    });
                    return;
                }
            }
        }
        let Some(nu) = suffix_unit(&name) else {
            return;
        };
        if !rhs.is_resolvable() {
            return;
        }
        if let Operand::Known(u, _) = &rhs {
            if *u == nu {
                return;
            }
        }
        let here = self.tok(k);
        out.ops.push(UnitOp {
            kind: OpKind::Arith,
            op: ":".to_string(),
            line: here.line,
            col: here.col,
            lhs: Operand::Known(nu, format!("suffix `{name}`")),
            rhs,
            lhs_text: name,
            rhs_text: self.span_text(rs, re),
        });
    }
}

/// `a * b`: `Count` (and bare literals) act as scalars; two
/// dimensioned operands give an unknown product.
fn combine_mul(a: &Operand, b: &Operand) -> Operand {
    match (a, b) {
        (Operand::Known(Unit::Count, _), Operand::Known(u, p))
        | (Operand::Known(u, p), Operand::Known(Unit::Count, _)) => {
            Operand::Known(*u, format!("{p} (scaled by a count)"))
        }
        (Operand::Known(_, _), Operand::Known(_, _)) => Operand::Unknown,
        (Operand::Known(u, p), Operand::Literal(_))
        | (Operand::Literal(_), Operand::Known(u, p)) => {
            Operand::Known(*u, format!("{p} (scaled by a literal)"))
        }
        _ => Operand::Unknown,
    }
}

/// `a / b`: same-unit division is a ratio (`Count`); dividing by a
/// scalar keeps the unit.
fn combine_div(a: &Operand, b: &Operand) -> Operand {
    match (a, b) {
        (Operand::Known(u1, _), Operand::Known(u2, _)) if u1 == u2 => {
            Operand::Known(Unit::Count, "same-unit ratio".to_string())
        }
        (Operand::Known(u, p), Operand::Known(Unit::Count, _))
        | (Operand::Known(u, p), Operand::Literal(_)) => {
            Operand::Known(*u, format!("{p} (divided by a scalar)"))
        }
        _ => Operand::Unknown,
    }
}

/// Run the unit pass over one file: local R17/R18 findings, R15/R16
/// operator facts, and fn return-unit summaries.
pub fn analyze(toks: &[Tok], mask: &[bool], items: &[FnItem]) -> UnitFacts {
    let az = Analyzer::new(toks, mask);
    let mut out = UnitFacts::default();
    let const_spans = az.const_spans();
    az.scan_time_ctors(&const_spans, &mut out);
    for item in items {
        if item.is_test {
            continue;
        }
        let Some((t0, t1)) = item.body else {
            continue;
        };
        // Body content sits strictly between the braces.
        let b0 = az.code_pos(t0 + 1);
        let b1 = az.code_pos(t1);
        if b0 >= b1 || b1 > az.code.len() {
            // Empty body.
        } else if az.masked.get(b0).copied().unwrap_or(true) {
            // cfg(test)-masked body.
        } else {
            let params = az.params_of(item);
            az.scan_body(b0, b1 - 1, &params, &mut out);
        }
        if let Some(u) = method_unit(&item.name).or_else(|| suffix_unit(&item.name)) {
            out.fn_units.push(FnUnit {
                name: item.name.clone(),
                owner: item.owner.clone(),
                unit: u,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn run(src: &str) -> UnitFacts {
        let toks = lex(src);
        let mask = test_mask(&toks);
        let items = parse_items(&toks, &mask);
        analyze(&toks, &mask, &items)
    }

    #[test]
    fn suffixes_classify_and_per_is_a_ratio() {
        assert_eq!(suffix_unit("wpq_latency_ns"), Some(Unit::Ns));
        assert_eq!(suffix_unit("ddr_cycles"), Some(Unit::Cycles));
        assert_eq!(suffix_unit("lines_per_page"), Some(Unit::Count));
        assert_eq!(suffix_unit("paddr"), Some(Unit::Addr));
        assert_eq!(suffix_unit("helper"), None);
    }

    #[test]
    fn literal_values_parse_all_forms() {
        assert_eq!(literal_value("25"), Some(25));
        assert_eq!(literal_value("4_096u64"), Some(4096));
        assert_eq!(literal_value("0x3F"), Some(63));
        assert_eq!(literal_value("0b100_0000"), Some(64));
        assert_eq!(literal_value("1e3"), Some(1000));
        assert_eq!(literal_value("2.5"), Some(2));
    }

    #[test]
    fn mixed_unit_addition_is_recorded() {
        let facts = run("fn f(a_ns: u64, b_cycles: u64) -> u64 { a_ns + b_cycles }");
        assert_eq!(facts.ops.len(), 1, "ops = {:?}", facts.ops);
        let op = &facts.ops[0];
        assert_eq!(op.op, "+");
        assert!(matches!(op.lhs, Operand::Known(Unit::Ns, _)));
        assert!(matches!(op.rhs, Operand::Known(Unit::Cycles, _)));
    }

    #[test]
    fn same_unit_addition_is_clean() {
        let facts = run("fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }");
        assert!(facts.ops.is_empty(), "ops = {:?}", facts.ops);
    }

    #[test]
    fn count_scaling_folds_through_products() {
        // count * ns is still ns: no mismatch against another ns value.
        let facts =
            run("fn f(n: usize, per_ns: u64, base_ns: u64) -> u64 { base_ns + n as u64 * per_ns }");
        assert!(facts.ops.is_empty(), "ops = {:?}", facts.ops);
    }

    #[test]
    fn let_bindings_propagate_units() {
        let facts = run("fn f(a_cycles: u64, b_ns: u64) -> u64 { let t = a_cycles; t + b_ns }");
        assert_eq!(facts.ops.len(), 1, "ops = {:?}", facts.ops);
        assert!(matches!(facts.ops[0].lhs, Operand::Known(Unit::Cycles, _)));
    }

    #[test]
    fn accessor_calls_classify() {
        let facts = run("fn f(t: Time, c_cycles: u64) -> bool { t.as_ns() < c_cycles }");
        assert_eq!(facts.ops.len(), 1, "ops = {:?}", facts.ops);
        assert_eq!(facts.ops[0].op, "<");
        assert!(matches!(facts.ops[0].lhs, Operand::Known(Unit::Ns, _)));
    }

    #[test]
    fn workspace_calls_become_pending_operands() {
        let facts = run("fn f(x_ns: u64, q: Queue) -> u64 { x_ns + q.drain_estimate() }");
        assert_eq!(facts.ops.len(), 1);
        assert!(
            matches!(&facts.ops[0].rhs, Operand::Call { name, .. } if name == "drain_estimate")
        );
    }

    #[test]
    fn addr_shift_by_bare_literal_is_a_crossing() {
        let facts = run("fn f(paddr: u64) -> u64 { paddr >> 6 }");
        assert_eq!(facts.ops.len(), 1, "ops = {:?}", facts.ops);
        assert_eq!(facts.ops[0].kind, OpKind::AddrCross);
        assert_eq!(facts.ops[0].rhs_text, "6");
    }

    #[test]
    fn shift_by_named_const_is_clean() {
        let facts = run("fn f(paddr: u64) -> u64 { paddr >> LINE_SHIFT }");
        assert!(facts.ops.is_empty(), "ops = {:?}", facts.ops);
    }

    #[test]
    fn timing_ctor_literal_fires_r17_outside_consts() {
        let facts = run("fn f() -> Time { Time::from_ns(25) }");
        assert_eq!(facts.local.len(), 1, "local = {:?}", facts.local);
        assert_eq!(facts.local[0].rule, LocalRule::TimingLiteral);
        let clean = run("const READ: Time = Time::from_ns(25);\nfn f() -> Time { READ }");
        assert!(clean.local.is_empty(), "local = {:?}", clean.local);
    }

    #[test]
    fn timing_field_literal_fires_r17() {
        let facts = run("fn f() -> C { C { lat_ns: 25, other: x } }");
        assert_eq!(facts.local.len(), 1, "local = {:?}", facts.local);
    }

    #[test]
    fn loop_product_accumulation_fires_r18() {
        let facts = run("fn f(reqs: &[R]) -> u64 {\n\
             let mut total = 0u64;\n\
             for r in reqs { total += r.len_bytes * BURST; }\n\
             total }");
        assert_eq!(facts.local.len(), 1, "local = {:?}", facts.local);
        assert_eq!(facts.local[0].rule, LocalRule::OverflowPolicy);
        let sat = run("fn f(reqs: &[R]) -> u64 {\n\
             let mut total = 0u64;\n\
             for r in reqs { total = total.saturating_add(r.len_bytes * BURST); }\n\
             total }");
        assert!(sat.local.is_empty(), "local = {:?}", sat.local);
    }

    #[test]
    fn fn_name_suffix_exports_summary() {
        let facts = run("impl Q { fn drain_cycles(&self) -> u64 { self.n } }");
        assert_eq!(facts.fn_units.len(), 1);
        assert_eq!(facts.fn_units[0].unit, Unit::Cycles);
        assert_eq!(facts.fn_units[0].owner.as_deref(), Some("Q"));
    }

    #[test]
    fn test_code_is_exempt() {
        let facts = run(
            "#[cfg(test)]\nmod tests {\n fn f(a_ns: u64, b_cycles: u64) -> u64 { a_ns + b_cycles + Time::from_ns(25).as_ns() }\n}",
        );
        assert!(facts.ops.is_empty() && facts.local.is_empty());
    }

    #[test]
    fn analysis_is_deterministic_and_suffix_order_independent() {
        let a = "fn f(a_ns: u64, b_cycles: u64) -> u64 { a_ns + b_cycles }";
        let b = "fn f(b_cycles: u64, a_ns: u64) -> u64 { a_ns + b_cycles }";
        let fa = run(a);
        let fa2 = run(a);
        assert_eq!(format!("{:?}", fa.ops), format!("{:?}", fa2.ops));
        let fb = run(b);
        assert_eq!(fa.ops.len(), fb.ops.len());
        assert_eq!(
            format!("{:?} {:?}", fa.ops[0].lhs, fa.ops[0].rhs),
            format!("{:?} {:?}", fb.ops[0].lhs, fb.ops[0].rhs),
            "declaration order must not change inferred units"
        );
    }
}
