//! R12 `lock-order`: lock/channel acquisition analysis for Driver-class
//! files.
//!
//! Driver code (the worker pool in the serve executor, the transport) is the
//! only place synchronization primitives are allowed, so it is also the
//! only place a lock-order inversion can arise. This module recovers, per
//! Driver function, *which* locks the body acquires and *what extent* each
//! guard lives for, then builds a workspace "acquired-while-held" graph:
//!
//!   * an acquisition while another guard is live adds a direct edge
//!     `held → acquired`,
//!   * a call made while a guard is live is resolved (name-based, with
//!     qualified narrowing exactly like the R7 call graph) against other
//!     Driver functions; every lock the callee transitively acquires adds
//!     an edge from the held lock.
//!
//! A cycle in that graph — including a self-loop, which with `std::sync::
//! Mutex` is a guaranteed deadlock — is a potential inversion and becomes
//! a finding, anchored at the edge site that closes the cycle, with the
//! acquisition chain attached as evidence.
//!
//! Guard-extent model (heuristic, matched to real std idiom):
//!
//!   * `match recv.lock() { ... }` — scrutinee guard, held to the end of
//!     the match body;
//!   * `let g = recv.lock().unwrap();` with only `unwrap`/`expect` in the
//!     chain — block guard, held to the end of the enclosing block;
//!   * any chain that goes on to consume the guard
//!     (`recv.lock().unwrap().pop_front()`) — temporary, dead at the end
//!     of its own statement.
//!
//! Lock identity is the receiver chain with index expressions dropped
//! (`slots[i].lock()` → `slots`, `self.0.lock()` → `self.N`), scoped to
//! the file; that is exact for the field and local locks the workspace
//! actually uses and conservative for anything fancier.

use crate::items::FnItem;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One lock/channel acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Heuristic lock identity (see module docs).
    pub lock: String,
    pub line: u32,
    pub col: u32,
}

/// A second acquisition made while another guard is live.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub then: String,
    /// Site of the inner acquisition.
    pub line: u32,
    pub col: u32,
}

/// A call made while a guard is live; resolved against other Driver
/// functions at the workspace level.
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub held: String,
    pub callee: String,
    /// `Some(Q)` for a qualified `Q::callee(..)` call.
    pub qual: Option<String>,
    pub line: u32,
    pub col: u32,
}

/// Lock-relevant facts for one Driver-class function.
#[derive(Debug, Clone, Default)]
pub struct LockFn {
    pub name: String,
    pub owner: Option<String>,
    pub acquires: Vec<LockAcq>,
    /// Every call in the body `(name, qualifier)`, for transitive
    /// acquisition through lock-free intermediaries.
    pub calls: Vec<(String, Option<String>)>,
    pub edges: Vec<LockEdge>,
    pub held_calls: Vec<HeldCall>,
}

/// A lock-order cycle, before inline-allow filtering.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// File of the edge site that closes the cycle.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Acquisition chain, `file::lock` nodes, first node repeated last.
    pub chain: Vec<String>,
}

/// Blocking acquisition methods. `send` on std's unbounded channels never
/// blocks and cannot participate in an ordering cycle.
const ACQUIRE_METHODS: [&str; 2] = ["lock", "recv"];

/// Chained methods that keep the guard alive without consuming it.
const PASSTHROUGH: [&str; 2] = ["expect", "unwrap"];

/// Collect lock facts for every non-test function in a Driver-class file.
pub fn collect(toks: &[Tok], mask: &[bool], items: &[FnItem]) -> Vec<LockFn> {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut out = Vec::new();
    for f in items.iter().filter(|f| !f.is_test) {
        let Some((b0, b1)) = f.body else { continue };
        let lo = code.partition_point(|&i| i < b0);
        let hi = code.partition_point(|&i| i <= b1);
        let mut lf = LockFn {
            name: f.name.clone(),
            owner: f.owner.clone(),
            calls: f
                .calls
                .iter()
                .map(|c| (c.name.clone(), c.qual.clone()))
                .collect(),
            ..LockFn::default()
        };

        // Acquisition sites: `.lock()` / `.recv()` with their guard extents.
        // (code position of the method ident, inclusive extent end).
        let mut acqs: Vec<(usize, usize, LockAcq)> = Vec::new();
        for k in lo..hi {
            let i = code[k];
            let t = &toks[i];
            if mask[i]
                || t.kind != TokKind::Ident
                || !ACQUIRE_METHODS.contains(&t.text.as_str())
                || k == 0
                || !toks[code[k - 1]].is_punct('.')
                || !code.get(k + 1).is_some_and(|&n| toks[n].is_punct('('))
            {
                continue;
            }
            let (base_k, lock) = receiver(toks, &code, k - 1);
            let end = extent(toks, &code, k, base_k, hi);
            acqs.push((
                k,
                end,
                LockAcq {
                    lock,
                    line: t.line,
                    col: t.col,
                },
            ));
        }

        // Events inside each guard's extent: nested acquisitions and calls.
        for (p, end, acq) in &acqs {
            for (q, _, other) in &acqs {
                if q > p && *q <= *end {
                    lf.edges.push(LockEdge {
                        held: acq.lock.clone(),
                        then: other.lock.clone(),
                        line: other.line,
                        col: other.col,
                    });
                }
            }
            for hc in held_calls(toks, &code, *p, *end, hi, &acq.lock) {
                lf.held_calls.push(hc);
            }
        }
        lf.acquires = acqs.into_iter().map(|(_, _, a)| a).collect();
        out.push(lf);
    }
    out
}

/// Call sites between code positions `(p, end]` — candidate edges when a
/// guard is live there.
fn held_calls(
    toks: &[Tok],
    code: &[usize],
    p: usize,
    end: usize,
    hi: usize,
    held: &str,
) -> Vec<HeldCall> {
    let mut out = Vec::new();
    let stop = end.min(hi.saturating_sub(1));
    for k in (p + 1)..=stop {
        let t = &toks[code[k]];
        if t.kind != TokKind::Ident
            || !code.get(k + 1).is_some_and(|&n| toks[n].is_punct('('))
            || PASSTHROUGH.contains(&t.text.as_str())
            || ACQUIRE_METHODS.contains(&t.text.as_str())
            || keywordish(&t.text)
        {
            continue;
        }
        if k >= 1 && toks[code[k - 1]].is_ident("fn") {
            continue;
        }
        let qual = if k >= 3
            && toks[code[k - 1]].is_punct(':')
            && toks[code[k - 2]].is_punct(':')
            && toks[code[k - 3]].kind == TokKind::Ident
        {
            Some(toks[code[k - 3]].text.clone())
        } else {
            None
        };
        out.push(HeldCall {
            held: held.to_string(),
            callee: t.text.clone(),
            qual,
            line: t.line,
            col: t.col,
        });
    }
    out
}

fn keywordish(name: &str) -> bool {
    matches!(
        name,
        "if" | "while" | "for" | "match" | "return" | "loop" | "Some" | "Ok" | "Err" | "None"
    )
}

/// Walk the receiver chain backwards from the `.` at code position `dot`.
/// Returns `(code position of the chain's first token, lock identity)`.
fn receiver(toks: &[Tok], code: &[usize], dot: usize) -> (usize, String) {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let mut k = j - 1;
        // Skip a trailing index/call group: `deques[w]` → `deques`,
        // `clients()` → `clients`.
        if toks[code[k]].is_punct(']') || toks[code[k]].is_punct(')') {
            let (open, close) = if toks[code[k]].is_punct(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut depth = 0i32;
            loop {
                if toks[code[k]].is_punct(close) {
                    depth += 1;
                } else if toks[code[k]].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return (j, join_parts(&parts));
                }
                k -= 1;
            }
            if k == 0 {
                return (j, join_parts(&parts));
            }
            k -= 1;
            if toks[code[k]].is_punct('.') {
                // `foo.bar[w].lock()`: the group belongs to a field access;
                // resume at the `.`.
                j = k;
                continue;
            }
        }
        match toks[code[k]].kind {
            TokKind::Ident => parts.push(toks[code[k]].text.clone()),
            // Tuple-field access (`self.0`): the lexer drops digit text, so
            // collapse every numeric field to `N` — distinct tuple-Mutex
            // fields on one struct would alias, which only ever merges
            // nodes (conservative).
            TokKind::Num => parts.push("N".to_string()),
            _ => break,
        }
        if k >= 1 && toks[code[k - 1]].is_punct('.') {
            j = k - 1;
        } else {
            return (k, join_parts(&parts));
        }
    }
    (j, join_parts(&parts))
}

fn join_parts(parts: &[String]) -> String {
    if parts.is_empty() {
        return "<expr>".to_string();
    }
    let mut ordered: Vec<&str> = parts.iter().map(String::as_str).collect();
    ordered.reverse();
    ordered.join(".")
}

/// Code position of the matching close for the group opening at `open`.
fn match_group(toks: &[Tok], code: &[usize], open: usize, hi: usize) -> usize {
    let (o, c) = if toks[code[open]].is_punct('[') {
        ('[', ']')
    } else {
        ('(', ')')
    };
    let mut depth = 0i32;
    let mut j = open;
    while j < hi {
        if toks[code[j]].is_punct(o) {
            depth += 1;
        } else if toks[code[j]].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    hi.saturating_sub(1)
}

/// Inclusive extent (code position) of the guard created by the
/// acquisition at code position `k`, whose receiver chain starts at
/// `base_k`.
fn extent(toks: &[Tok], code: &[usize], k: usize, base_k: usize, hi: usize) -> usize {
    // 1. Follow the method chain after `lock()`; note whether it consumes
    //    the guard.
    let mut j = match_group(toks, code, k + 1, hi);
    let mut consumed = false;
    while let Some(&n) = code.get(j + 1) {
        if !toks[n].is_punct('.') {
            break;
        }
        let Some(&m) = code.get(j + 2) else { break };
        if toks[m].kind != TokKind::Ident && toks[m].kind != TokKind::Num {
            break;
        }
        if code.get(j + 3).is_some_and(|&g| toks[g].is_punct('(')) {
            if !PASSTHROUGH.contains(&toks[m].text.as_str()) {
                consumed = true;
            }
            j = match_group(toks, code, j + 3, hi);
        } else {
            // Field access through the guard consumes/borrows it locally.
            consumed = true;
            j += 2;
        }
    }
    let chain_end = j;

    // 2. `match recv.lock() { ... }` — scrutinee guard held through the
    //    match body (an `&` borrow of the scrutinee behaves the same).
    let scrutinee = (base_k >= 1 && toks[code[base_k - 1]].is_ident("match"))
        || (base_k >= 2
            && toks[code[base_k - 1]].is_punct('&')
            && toks[code[base_k - 2]].is_ident("match"));
    if scrutinee {
        if code
            .get(chain_end + 1)
            .is_some_and(|&n| toks[n].is_punct('{'))
        {
            let mut depth = 0i32;
            let mut q = chain_end + 1;
            while q < hi {
                if toks[code[q]].is_punct('{') {
                    depth += 1;
                } else if toks[code[q]].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return q;
                    }
                }
                q += 1;
            }
        }
        return chain_end;
    }

    // 3. `let g = recv.lock().unwrap();` — unconsumed let-bound guard lives
    //    to the end of the enclosing block.
    if !consumed && statement_starts_with_let(toks, code, base_k) {
        let mut depth = 0i32;
        let mut q = k;
        while q < hi {
            if toks[code[q]].is_punct('{') {
                depth += 1;
            } else if toks[code[q]].is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return q;
                }
            }
            q += 1;
        }
        return hi.saturating_sub(1);
    }

    // 4. Temporary guard: dead at the end of its own statement (`;`, a
    //    top-level `,`, or the close of the enclosing group/block).
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut q = chain_end + 1;
    while q < hi {
        let t = &toks[code[q]];
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                return q;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
            if paren < 0 {
                return q;
            }
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
            if bracket < 0 {
                return q;
            }
        } else if (t.is_punct(';') || t.is_punct(',')) && brace == 0 && paren == 0 && bracket == 0 {
            return q;
        }
        q += 1;
    }
    hi.saturating_sub(1)
}

/// True when the statement containing code position `base_k` begins with
/// `let`. The backward scan stops at the nearest `;`/`{`/`}`/`=>`.
fn statement_starts_with_let(toks: &[Tok], code: &[usize], base_k: usize) -> bool {
    let mut first = base_k;
    let mut k = base_k;
    while k > 0 {
        k -= 1;
        let t = &toks[code[k]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_punct('>') && k >= 1 && toks[code[k - 1]].is_punct('=') {
            break;
        }
        first = k;
    }
    toks[code[first]].is_ident("let")
}

/// Workspace pass: build the acquired-while-held graph across Driver files
/// and return every distinct cycle.
pub fn lock_order(files: &[(String, Vec<LockFn>)]) -> Vec<Cycle> {
    // Transitive acquisition per function, to a fixpoint over calls with
    // qualified narrowing (a `Q::f` call only resolves to fns owned by `Q`).
    let mut fn_ids: Vec<(usize, usize)> = Vec::new();
    for (fi, (_, fns)) in files.iter().enumerate() {
        for gi in 0..fns.len() {
            fn_ids.push((fi, gi));
        }
    }
    let by_name: BTreeMap<&str, Vec<usize>> = {
        let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, &(fi, gi)) in fn_ids.iter().enumerate() {
            m.entry(files[fi].1[gi].name.as_str()).or_default().push(id);
        }
        m
    };
    let node = |fi: usize, lock: &str| -> String { format!("{}::{lock}", files[fi].0) };
    let resolve = |name: &str, qual: &Option<String>| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        cands
            .iter()
            .copied()
            .filter(|&id| {
                let (fi, gi) = fn_ids[id];
                match qual {
                    Some(q) => files[fi].1[gi].owner.as_deref() == Some(q.as_str()),
                    None => true,
                }
            })
            .collect()
    };

    let mut acquired: Vec<BTreeSet<String>> = fn_ids
        .iter()
        .map(|&(fi, gi)| {
            files[fi].1[gi]
                .acquires
                .iter()
                .map(|a| node(fi, &a.lock))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (id, &(fi, gi)) in fn_ids.iter().enumerate() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (name, qual) in &files[fi].1[gi].calls {
                for callee in resolve(name, qual) {
                    if callee != id {
                        add.extend(acquired[callee].iter().cloned());
                    }
                }
            }
            for n in add {
                if acquired[id].insert(n) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge list: (from, to, file, line, col).
    let mut edges: Vec<(String, String, String, u32, u32)> = Vec::new();
    for (fi, (file, fns)) in files.iter().enumerate() {
        for lf in fns {
            for e in &lf.edges {
                edges.push((
                    node(fi, &e.held),
                    node(fi, &e.then),
                    file.clone(),
                    e.line,
                    e.col,
                ));
            }
            for hc in &lf.held_calls {
                for callee in resolve(&hc.callee, &hc.qual) {
                    for l in &acquired[callee] {
                        edges.push((node(fi, &hc.held), l.clone(), file.clone(), hc.line, hc.col));
                    }
                }
            }
        }
    }
    edges.sort();
    edges.dedup();

    // Adjacency for reachability.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (u, v, _, _, _) in &edges {
        adj.entry(u.as_str()).or_default().insert(v.as_str());
    }
    let path_to = |from: &str, to: &str| -> Option<Vec<String>> {
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut q: VecDeque<&str> = VecDeque::new();
        q.push_back(from);
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        seen.insert(from);
        while let Some(u) = q.pop_front() {
            if u == to {
                let mut path = vec![to.to_string()];
                let mut cur = to;
                while cur != from {
                    let p = prev.get(cur)?;
                    path.push((*p).to_string());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(next) = adj.get(u) {
                for &v in next {
                    if seen.insert(v) {
                        prev.insert(v, u);
                        q.push_back(v);
                    }
                }
            }
        }
        None
    };

    // A cycle exists through edge u→v iff v reaches u. Dedupe by node set.
    let mut out = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for (u, v, file, line, col) in &edges {
        let Some(mut path) = path_to(v, u) else {
            continue;
        };
        // path = v .. u; prepend u to show the full loop u → v → .. → u.
        let mut chain = vec![u.clone()];
        chain.append(&mut path);
        let mut key: Vec<String> = chain.clone();
        key.sort();
        key.dedup();
        if seen_cycles.insert(key) {
            out.push(Cycle {
                file: file.clone(),
                line: *line,
                col: *col,
                chain,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::{allows, test_mask};

    fn facts(src: &str) -> Vec<LockFn> {
        let toks = lex(src);
        let mask = test_mask(&toks);
        let al = allows(&toks);
        let items = crate::items::parse_items(&toks, &mask, &al);
        collect(&toks, &mask, &items)
    }

    #[test]
    fn temp_guards_do_not_nest() {
        let src = "
            fn steal(deques: &[M], w: usize) {
                let own = deques[w].lock().unwrap().pop_front();
                let len = deques[0].lock().unwrap().len();
            }
        ";
        let fns = facts(src);
        assert_eq!(fns[0].acquires.len(), 2);
        assert_eq!(fns[0].acquires[0].lock, "deques");
        assert!(fns[0].edges.is_empty(), "temps die at their statement");
    }

    #[test]
    fn let_bound_guard_sees_nested_acquisition() {
        let src = "
            fn inversion(&self) {
                let a = self.slots.lock().unwrap();
                let b = self.queue.lock().unwrap();
            }
        ";
        let fns = facts(src);
        assert_eq!(fns[0].edges.len(), 1);
        assert_eq!(fns[0].edges[0].held, "self.slots");
        assert_eq!(fns[0].edges[0].then, "self.queue");
    }

    #[test]
    fn match_scrutinee_guard_spans_the_match_body() {
        let src = "
            fn take(&self) -> Vec<u8> {
                match self.N.lock() {
                    Ok(mut b) => std::mem::take(&mut *b),
                    Err(p) => std::mem::take(&mut *p.into_inner()),
                }
            }
        ";
        let fns = facts(src);
        assert_eq!(fns[0].acquires[0].lock, "self.N");
        // `mem::take` is recorded as a held call with its qualifier, so the
        // workspace pass can refuse to resolve it to a same-name local fn.
        assert!(fns[0]
            .held_calls
            .iter()
            .any(|hc| hc.callee == "take" && hc.qual.as_deref() == Some("mem")));
    }

    #[test]
    fn two_fn_cycle_is_found_and_consistent_order_is_not() {
        let cyclic = "
            fn ab(&self) {
                let a = self.a.lock().unwrap();
                let b = self.b.lock().unwrap();
            }
            fn ba(&self) {
                let b = self.b.lock().unwrap();
                let a = self.a.lock().unwrap();
            }
        ";
        let cycles = lock_order(&[("f.rs".to_string(), facts(cyclic))]);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].chain.len() >= 3);

        let consistent = "
            fn ab(&self) {
                let a = self.a.lock().unwrap();
                let b = self.b.lock().unwrap();
            }
            fn also_ab(&self) {
                let a = self.a.lock().unwrap();
                let b = self.b.lock().unwrap();
            }
        ";
        assert!(lock_order(&[("f.rs".to_string(), facts(consistent))]).is_empty());
    }

    #[test]
    fn held_call_into_locking_fn_closes_a_cycle() {
        let src = "
            fn outer(&self) {
                let g = self.a.lock().unwrap();
                self.inner();
            }
            fn inner(&self) {
                let h = self.b.lock().unwrap();
                let g = self.a.lock().unwrap();
            }
        ";
        let cycles = lock_order(&[("g.rs".to_string(), facts(src))]);
        assert!(
            !cycles.is_empty(),
            "a→inner(b, then a) must close a cycle through the held call"
        );
    }

    #[test]
    fn self_deadlock_is_a_self_loop() {
        let src = "
            fn reenter(&self) {
                let g = self.a.lock().unwrap();
                let h = self.a.lock().unwrap();
            }
        ";
        let cycles = lock_order(&[("h.rs".to_string(), facts(src))]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].chain, vec!["h.rs::self.a", "h.rs::self.a"]);
    }
}
