//! Conservative name-based workspace call graph + panic-reachability
//! (rule R7 `panic-reach`).
//!
//! Nodes are the non-test function items of every simulation-class file.
//! Edges are resolved by name only — no type inference:
//!
//!   * `Q::name(..)` links to functions named `name` owned by `Q`, falling
//!     back to every function named `name` when no owner matches;
//!   * `.name(..)` and `name(..)` link to every workspace function named
//!     `name` (trait-method dispatch is ambiguous, so all impls are
//!     assumed reachable — over-approximation, never under).
//!
//! A function *panics directly* when its body holds an unsanctioned panic
//! site (`.unwrap()`, `.expect()`, `panic!`-family; `allow(panic-path)`
//! sanctions a site). Reachability is a fixed-point (breadth-first over
//! reverse edges, so cycles converge): a function reaches a panic when it
//! calls one that panics directly or reaches one. Propagation stops at
//! sanctioned roots: `expect_completion` (the one designed completion
//! bookkeeping panic), `inject_power_loss` (the clock-freezing
//! crash-injection boundary), and any function whose declaration carries
//! a justified `allow(panic-reach)` annotation. Such an annotated
//! boundary is itself reported when it reaches a panic; its allow then
//! suppresses that finding, which is what keeps the allow live.
//!
//! Directly-panicking functions are *not* reported here — R3 `panic-path`
//! already flags the site itself. R7 reports the callers R3 is blind to,
//! with the full call chain as evidence.

use crate::items::FnItem;
use std::collections::BTreeMap;

/// Function names that are sanctioned panic boundaries workspace-wide.
/// `expect_completion` is the designed infallible completion take
/// (documented in `nvsim-types::backend`); its panic is the stated
/// invariant, so callers are not flagged for reaching it.
/// `inject_power_loss` is the crash-injection boundary
/// (`vans::system`): it deliberately cuts the run at a frozen clock and
/// replays the persistence log, so reaches through it are the designed
/// fault-injection contract, not datapath bugs.
const SANCTIONED_ROOTS: [&str; 2] = ["expect_completion", "inject_power_loss"];

/// One call-graph node: a function item plus its defining file.
#[derive(Debug, Clone)]
pub struct Node {
    pub file: String,
    pub item: FnItem,
}

/// A function that transitively reaches an unsanctioned panic.
#[derive(Debug, Clone)]
pub struct PanicReach {
    /// File/line/col of the reaching function's declaration.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Display name (`Owner::name`).
    pub name: String,
    /// Evidence chain, caller first: `fn a (file:line)` → ... ending with
    /// the panic site itself (`.unwrap() at file:line:col`).
    pub chain: Vec<String>,
}

/// The workspace call graph over simulation-class functions.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Graph {
    /// Build the graph from `(file, items)` pairs (simulation-class files
    /// only; test items are dropped here). Files must arrive in
    /// deterministic (sorted) order for stable reports.
    pub fn build(files: impl IntoIterator<Item = (String, Vec<FnItem>)>) -> Graph {
        let mut g = Graph::default();
        for (file, items) in files {
            for item in items {
                if item.is_test {
                    continue;
                }
                let idx = g.nodes.len();
                g.by_name.entry(item.name.clone()).or_default().push(idx);
                g.nodes.push(Node {
                    file: file.clone(),
                    item,
                });
            }
        }
        g
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is node `i` a sanctioned boundary (by name or annotation)?
    fn is_boundary(&self, i: usize) -> bool {
        self.nodes[i].item.boundary || self.is_named_root(i)
    }

    /// Is node `i` a boundary by name, never reported?
    fn is_named_root(&self, i: usize) -> bool {
        SANCTIONED_ROOTS.contains(&self.nodes[i].item.name.as_str())
    }

    /// Resolve one call to candidate callee node indices.
    fn resolve(&self, name: &str, qual: Option<&str>) -> &[usize] {
        static EMPTY: [usize; 0] = [];
        let Some(all) = self.by_name.get(name) else {
            return &EMPTY;
        };
        if let Some(q) = qual {
            // Prefer owner-qualified matches; a miss falls back to every
            // same-named fn (the qualifier may be a module, not a type).
            if all
                .iter()
                .any(|&i| self.nodes[i].item.owner.as_deref() == Some(q))
            {
                // Narrowing requires an owned return; callers iterate, so
                // hand back the full list and filter there instead.
            }
        }
        all
    }

    /// Candidate callees of a call, honouring qualified-call narrowing.
    fn callees(&self, name: &str, qual: Option<&str>) -> Vec<usize> {
        let all = self.resolve(name, qual);
        if let Some(q) = qual {
            let narrowed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].item.owner.as_deref() == Some(q))
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
        }
        all.to_vec()
    }

    /// Compute every function that transitively reaches an unsanctioned
    /// panic (excluding functions that panic directly — R3's findings —
    /// and the by-name roots). Annotated boundaries are included but do
    /// not pass the reach on to their callers.
    pub fn panic_reaches(&self) -> Vec<PanicReach> {
        let n = self.nodes.len();
        // Direct panic evidence per node.
        let direct: Vec<Option<&crate::items::PanicSite>> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                if self.is_boundary(i) {
                    return None;
                }
                node.item.panics.iter().find(|p| !p.sanctioned)
            })
            .collect();

        // Reverse edges: rev[v] = callers of v (deduped, sorted).
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, node) in self.nodes.iter().enumerate() {
            let mut seen: Vec<usize> = Vec::new();
            for call in &node.item.calls {
                for v in self.callees(&call.name, call.qual.as_deref()) {
                    if v != u && !seen.contains(&v) {
                        seen.push(v);
                        rev[v].push(u);
                    }
                }
            }
        }

        // BFS from directly-panicking nodes over reverse edges; `via[u]`
        // remembers the callee through which `u` first reached a panic.
        let mut via: Vec<Option<usize>> = vec![None; n];
        let mut reached = vec![false; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| direct[i].is_some()).collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &u in &rev[v] {
                if reached[u] || direct[u].is_some() || self.is_named_root(u) {
                    continue;
                }
                reached[u] = true;
                via[u] = Some(v);
                if !self.is_boundary(u) {
                    queue.push(u);
                }
            }
        }

        let mut out = Vec::new();
        for (u, _) in reached.iter().enumerate().filter(|&(_, &r)| r) {
            let mut chain = Vec::new();
            let mut cur = u;
            chain.push(self.describe(cur));
            while let Some(next) = via[cur] {
                chain.push(self.describe(next));
                cur = next;
            }
            // `cur` panics directly; append the site itself.
            if let Some(site) = direct[cur] {
                chain.push(format!(
                    "{} at {}:{}:{}",
                    site.what, self.nodes[cur].file, site.line, site.col
                ));
            }
            let node = &self.nodes[u];
            out.push(PanicReach {
                file: node.file.clone(),
                line: node.item.line,
                col: node.item.col,
                name: node.item.qual_name(),
                chain,
            });
        }
        out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
        out
    }

    fn describe(&self, i: usize) -> String {
        let node = &self.nodes[i];
        format!(
            "fn {} ({}:{})",
            node.item.qual_name(),
            node.file,
            node.item.line
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::{allows, test_mask};

    fn graph(files: &[(&str, &str)]) -> Graph {
        Graph::build(files.iter().map(|(path, src)| {
            let toks = lex(src);
            let mask = test_mask(&toks);
            let al = allows(&toks);
            (
                path.to_string(),
                crate::items::parse_items(&toks, &mask, &al),
            )
        }))
    }

    #[test]
    fn two_hop_reach_is_found_with_chain() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn a() { b(); }
            fn b() { c(); }
            fn c(x: Option<u32>) -> u32 { x.unwrap() }
            ",
        )]);
        let reaches = g.panic_reaches();
        // a and b reach; c panics directly (R3's job, not reported here).
        let names: Vec<&str> = reaches.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let a = &reaches[0];
        assert_eq!(a.chain.len(), 4, "chain = {:?}", a.chain);
        assert!(a.chain[0].contains("fn a"));
        assert!(a.chain[1].contains("fn b"));
        assert!(a.chain[2].contains("fn c"));
        assert!(a.chain[3].contains(".unwrap()"));
    }

    #[test]
    fn sanctioned_root_stops_propagation() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn a() { b(); }
            // nvsim-lint: allow(panic-reach) — invariant checked by caller
            fn b() { c(); }
            fn c(x: Option<u32>) -> u32 { x.unwrap() }
            ",
        )]);
        // `b` is reported for its allow to suppress; `a` is not: the
        // boundary absorbs the reach.
        let names: Vec<String> = g.panic_reaches().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["b"], "boundary must absorb the reach: {names:?}");
    }

    #[test]
    fn expect_completion_is_a_sanctioned_root_by_name() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn driver(b: &mut B) { b.expect_completion(7); }
            impl B {
                fn expect_completion(&mut self, id: u64) -> u64 {
                    self.take(id).expect(\"in flight\")
                }
            }
            ",
        )]);
        assert!(g.panic_reaches().is_empty());
    }

    #[test]
    fn inject_power_loss_is_a_sanctioned_root_by_name() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn driver(s: &S) { s.inject_power_loss(7); }
            impl S {
                fn inject_power_loss(&self, k: u64) -> u64 {
                    self.cut(k).expect(\"resolvable fault plan\")
                }
            }
            ",
        )]);
        assert!(g.panic_reaches().is_empty());
    }

    #[test]
    fn sanctioned_panic_site_does_not_seed() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn a() { b(); }
            fn b() {
                // nvsim-lint: allow(panic-path) — documented boundary panic
                panic!(\"boundary\");
            }
            ",
        )]);
        assert!(g.panic_reaches().is_empty());
    }

    #[test]
    fn cycles_converge() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn ping(n: u32) { if n > 0 { pong(n - 1); } }
            fn pong(n: u32) { ping(n); boom(); }
            fn boom() { panic!(\"x\") }
            ",
        )]);
        let names: Vec<String> = g.panic_reaches().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["ping", "pong"]);
    }

    #[test]
    fn ambiguous_trait_dispatch_links_all_impls() {
        // `.work()` could be either impl; the panicking one must count.
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn driver(x: &dyn W) { x.work(); }
            impl W for Safe { fn work(&self) {} }
            impl W for Risky { fn work(&self) { panic!(\"boom\") } }
            ",
        )]);
        let reaches = g.panic_reaches();
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].name, "driver");
        assert!(reaches[0].chain.iter().any(|s| s.contains("Risky::work")));
    }

    #[test]
    fn qualified_calls_narrow_to_owner() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn user() { Safe::make(); }
            impl Safe { fn make() {} }
            impl Risky { fn make() { panic!(\"boom\") } }
            ",
        )]);
        assert!(
            g.panic_reaches().is_empty(),
            "Safe::make() must not link to Risky::make"
        );
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph(&[(
            "crates/vans/src/a.rs",
            "
            fn live() { helper(); }
            fn helper() {}
            #[cfg(test)]
            mod tests {
                fn helper() { panic!(\"test-only\") }
            }
            ",
        )]);
        assert!(g.panic_reaches().is_empty());
    }
}
