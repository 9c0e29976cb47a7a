//! Behavioural models of the §V cloud workloads.
//!
//! What matters for the paper's findings is each workload's *memory
//! access structure*, which these models reproduce:
//!
//! * [`Redis`] — GET/SET over a chained hash table: every operation is a
//!   burst of **dependent** loads (bucket → node → node → value). Reads
//!   dominate, which is what makes read CPI 8.8× the rest in Fig 12a.
//! * [`Ycsb`] — Zipfian key-value traffic where ten metadata lines
//!   (counters/heads) are written on *every* update: the Top-10 write
//!   concentration of Fig 12b.
//! * [`Tpcc`] — order transactions: reads on customer/stock tables,
//!   row updates, and a sequential redo-log stream with fences.
//! * [`FioWrite`] — fio's sequential write job: pure streaming
//!   non-temporal stores with periodic fences.
//! * [`PmdkHashMap`] / [`PmdkLinkedList`] — the PMDK microbenchmarks:
//!   persistent data structures whose updates are followed by
//!   `clwb` + fence, and whose traversals are dependent chases
//!   (markable with `mkpt` for Pre-translation).

use crate::zipf::Zipfian;
use crate::Workload;
use nvsim_cpu::TraceOp;
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::{DetRng, VirtAddr};
use std::sync::OnceLock;

/// Common alias: virtual heap base for cloud workloads.
const HEAP: u64 = 0x20_0000_0000;

/// A boxed cloud workload (convenience for experiment tables).
pub type CloudWorkload = Box<dyn Workload + Send>;

/// Builds the six workloads of Fig 13 in paper order.
pub fn fig13_workloads(seed: u64) -> Vec<CloudWorkload> {
    vec![
        Box::new(FioWrite::new(seed)),
        Box::new(Ycsb::new(seed)),
        Box::new(Tpcc::new(seed)),
        Box::new(PmdkHashMap::new(seed)),
        Box::new(Redis::new(seed)),
        Box::new(PmdkLinkedList::new(seed)),
    ]
}

// ---------------------------------------------------------------------
// Redis
// ---------------------------------------------------------------------

/// The Redis model: chained hash table with dependent lookups.
#[derive(Debug)]
pub struct Redis {
    rng: DetRng,
    // nvsim-lint: allow(snapshot-field-coverage) — immutable precomputed Zipfian CDF, shared by every instance in the process; the mutable sampling state is `rng`, which is snapshotted.
    keys: Zipfian,
    /// Average chain length (nodes chased per op).
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    chain: u32,
    mkpt: bool,
    /// Table footprint in lines.
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    lines: u64,
}

impl Redis {
    /// Creates a Redis model: 64 K keys whose 12-node chains scatter
    /// over a ~512 MB dataset (~50 MB of live nodes, beyond the LLC),
    /// 90% GET / 10% SET, chains of ~12 nodes (bucket + list + value).
    pub fn new(seed: u64) -> Self {
        // The table depends on constants only: one per process.
        static KEYS: OnceLock<Zipfian> = OnceLock::new();
        Redis {
            rng: DetRng::seed_from(seed ^ 0x5ed1),
            keys: KEYS.get_or_init(|| Zipfian::new(1 << 16, 0.3)).clone(),
            chain: 12,
            mkpt: false,
            lines: (512u64 << 20) / 64,
        }
    }

    fn node_addr(&mut self, key: usize, hop: u32) -> VirtAddr {
        // Nodes are scattered: hash the (key, hop) pair into the heap.
        let mut h = (key as u64) ^ ((hop as u64) << 40) ^ 0x9E37_79B9;
        h ^= h >> 23;
        h = h.wrapping_mul(0x2127_599B_F432_5C37);
        h ^= h >> 47;
        VirtAddr::new(HEAP + (h % self.lines) * 64)
    }
}

impl Workload for Redis {
    fn name(&self) -> &str {
        "Redis"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn set_mkpt(&mut self, enabled: bool) {
        self.mkpt = enabled;
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let mut out = Vec::new();
        let mut emitted = 0u64;
        while emitted < instructions {
            let key = self.keys.sample(&mut self.rng);
            let is_get = self.rng.chance(0.9);
            // Command parsing / dispatch compute.
            out.push(TraceOp::compute(30));
            emitted += 30;
            for hop in 0..self.chain {
                let v = self.node_addr(key, hop);
                out.push(if self.mkpt {
                    TraceOp::chase_mkpt(v)
                } else {
                    TraceOp::chase(v)
                });
                emitted += 1;
            }
            if !is_get {
                let v = self.node_addr(key, self.chain);
                out.push(TraceOp::store(v));
                out.push(TraceOp::Clwb { vaddr: v });
                out.push(TraceOp::Fence);
                emitted += 3;
            }
            out.push(TraceOp::compute(10));
            emitted += 10;
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// YCSB
// ---------------------------------------------------------------------

/// The YCSB model: Zipfian record traffic plus ten always-written
/// metadata lines.
#[derive(Debug)]
pub struct Ycsb {
    rng: DetRng,
    // nvsim-lint: allow(snapshot-field-coverage) — immutable precomputed Zipfian CDF, shared by every instance in the process; the mutable sampling state is `rng`, which is snapshotted.
    keys: Zipfian,
    mkpt: bool,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    records: u64,
}

impl Ycsb {
    /// Creates a YCSB(A)-like model: 50% read / 50% update over 1 M
    /// 1 KB records, with 10 hot metadata lines.
    pub fn new(seed: u64) -> Self {
        // Record popularity is moderately skewed (θ=0.8): the extreme
        // write concentration of Fig 12b comes from the shared metadata
        // lines, not from any single record. The table depends on
        // constants only: one per process.
        static KEYS: OnceLock<Zipfian> = OnceLock::new();
        Ycsb {
            rng: DetRng::seed_from(seed ^ 0x5c5b),
            keys: KEYS.get_or_init(|| Zipfian::new(1 << 20, 0.8)).clone(),
            mkpt: false,
            records: 1 << 20,
        }
    }

    fn record_addr(&self, key: usize) -> VirtAddr {
        VirtAddr::new(HEAP + (key as u64 % self.records) * 1024)
    }

    /// The ten wear-hot metadata lines (Fig 12b's "Top10").
    pub fn hot_lines() -> [VirtAddr; 10] {
        let mut a = [VirtAddr::new(0); 10];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = VirtAddr::new(HEAP - 4096 + (i as u64) * 64);
        }
        a
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &str {
        "YCSB"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn set_mkpt(&mut self, enabled: bool) {
        self.mkpt = enabled;
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let hot = Self::hot_lines();
        let mut out = Vec::new();
        let mut emitted = 0u64;
        let mut op_idx = 0u64;
        while emitted < instructions {
            let key = self.keys.sample(&mut self.rng);
            let rec = self.record_addr(key);
            out.push(TraceOp::compute(50));
            emitted += 50;
            // Index lookup: two dependent hops.
            out.push(if self.mkpt {
                TraceOp::chase_mkpt(rec)
            } else {
                TraceOp::chase(rec)
            });
            out.push(TraceOp::load(VirtAddr::new(rec.raw() + 256)));
            emitted += 2;
            if self.rng.chance(0.5) {
                // Update: write one line of the record (persisted lazily
                // via cache write-back, as storage engines do for data)...
                out.push(TraceOp::store(rec));
                emitted += 1;
                // ...and ALWAYS the hot metadata (begin record, commit
                // counter, LRU head), rotating over the ten lines and
                // persisted eagerly — this is the write concentration of
                // Fig 12b.
                for k in 0..3u64 {
                    let h = hot[((op_idx * 3 + k) % 10) as usize];
                    out.push(TraceOp::store(h));
                    out.push(TraceOp::Clwb { vaddr: h });
                    emitted += 2;
                }
                out.push(TraceOp::Fence);
                emitted += 1;
            }
            out.push(TraceOp::compute(15));
            emitted += 15;
            op_idx += 1;
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// TPCC
// ---------------------------------------------------------------------

/// The TPCC model: new-order transactions with a redo log.
#[derive(Debug)]
pub struct Tpcc {
    rng: DetRng,
    mkpt: bool,
    log_cursor: u64,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    warehouse_lines: u64,
}

impl Tpcc {
    /// Creates a TPCC-like model over a ~1 GB table space.
    pub fn new(seed: u64) -> Self {
        Tpcc {
            rng: DetRng::seed_from(seed ^ 0x79cc),
            mkpt: false,
            log_cursor: 0,
            warehouse_lines: (1u64 << 30) / 64,
        }
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &str {
        "TPCC"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn set_mkpt(&mut self, enabled: bool) {
        self.mkpt = enabled;
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let mut out = Vec::new();
        let mut emitted = 0u64;
        let log_base = HEAP + (2u64 << 30);
        while emitted < instructions {
            out.push(TraceOp::compute(120));
            emitted += 120;
            // Read customer + district + 5 stock rows (indexed lookups:
            // one dependent hop each).
            for _ in 0..7 {
                let line = self.rng.range_u64(0, self.warehouse_lines);
                let v = VirtAddr::new(HEAP + line * 64);
                out.push(if self.mkpt {
                    TraceOp::chase_mkpt(v)
                } else {
                    TraceOp::chase(v)
                });
                emitted += 1;
            }
            // Update 3 rows.
            for _ in 0..3 {
                let line = self.rng.range_u64(0, self.warehouse_lines);
                let v = VirtAddr::new(HEAP + line * 64);
                out.push(TraceOp::store(v));
                out.push(TraceOp::Clwb { vaddr: v });
                emitted += 2;
            }
            // Append a 256 B redo-log record and commit.
            for i in 0..4u64 {
                let v = VirtAddr::new(log_base + self.log_cursor * 64 + i * 64);
                out.push(TraceOp::nt_store(v));
                emitted += 1;
            }
            self.log_cursor = (self.log_cursor + 4) % ((256u64 << 20) / 64);
            out.push(TraceOp::Fence);
            out.push(TraceOp::compute(40));
            emitted += 41;
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// fio
// ---------------------------------------------------------------------

/// The fio sequential-write model.
#[derive(Debug)]
pub struct FioWrite {
    cursor: u64,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; restore validates the cursor against it.
    span_lines: u64,
    mkpt: bool,
}

impl FioWrite {
    /// Creates a fio write job streaming over 1 GB.
    pub fn new(_seed: u64) -> Self {
        FioWrite {
            cursor: 0,
            span_lines: (1u64 << 30) / 64,
            mkpt: false,
        }
    }
}

impl Workload for FioWrite {
    fn name(&self) -> &str {
        "FIO-write"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let mut out = Vec::new();
        let mut emitted = 0u64;
        while emitted < instructions {
            // 4 KB block: 64 sequential NT stores, then sync.
            for _ in 0..64 {
                let v = VirtAddr::new(HEAP + self.cursor * 64);
                out.push(TraceOp::nt_store(v));
                self.cursor = (self.cursor + 1) % self.span_lines;
                emitted += 1;
            }
            out.push(TraceOp::Fence);
            out.push(TraceOp::compute(30));
            emitted += 31;
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// PMDK microbenchmarks
// ---------------------------------------------------------------------

/// The PMDK persistent HashMap microbenchmark.
#[derive(Debug)]
pub struct PmdkHashMap {
    rng: DetRng,
    mkpt: bool,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    buckets: u64,
}

impl PmdkHashMap {
    /// Creates the HashMap model: 4 M buckets, 80% get / 20% insert.
    pub fn new(seed: u64) -> Self {
        PmdkHashMap {
            rng: DetRng::seed_from(seed ^ 0x4a5),
            mkpt: false,
            buckets: 4 << 20,
        }
    }
}

impl Workload for PmdkHashMap {
    fn name(&self) -> &str {
        "HashMap"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn set_mkpt(&mut self, enabled: bool) {
        self.mkpt = enabled;
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let mut out = Vec::new();
        let mut emitted = 0u64;
        while emitted < instructions {
            let bucket = self.rng.range_u64(0, self.buckets);
            let b = VirtAddr::new(HEAP + bucket * 256);
            out.push(TraceOp::compute(30));
            emitted += 30;
            // Bucket head + 2 chain hops.
            for hop in 0..3u64 {
                let v = VirtAddr::new(b.raw() + hop * 64);
                out.push(if self.mkpt {
                    TraceOp::chase_mkpt(v)
                } else {
                    TraceOp::chase(v)
                });
                emitted += 1;
            }
            if self.rng.chance(0.2) {
                // Insert: write node + persist.
                let v = VirtAddr::new(b.raw() + 192);
                out.push(TraceOp::store(v));
                out.push(TraceOp::Clwb { vaddr: v });
                out.push(TraceOp::Fence);
                emitted += 3;
            }
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

/// The PMDK persistent LinkedList microbenchmark: long traversals over a
/// *fixed* list structure.
///
/// The successor of each node is a deterministic hash of the node index:
/// the list's layout never changes between traversals, which is what
/// lets Pre-translation learn the pointer chains (§V-B).
#[derive(Debug)]
pub struct PmdkLinkedList {
    rng: DetRng,
    mkpt: bool,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time constant; never mutated.
    nodes: u64,
}

impl PmdkLinkedList {
    /// Creates the LinkedList model: 1 M nodes of 128 B (a 128 MB list,
    /// far beyond the LLC), traversals of ~32 hops.
    pub fn new(seed: u64) -> Self {
        PmdkLinkedList {
            rng: DetRng::seed_from(seed ^ 0x11),
            mkpt: false,
            nodes: 1 << 20,
        }
    }

    /// The fixed successor function of the list: a 4-round Feistel
    /// permutation on 20 bits. A *bijection* matters: real linked lists
    /// have exactly one predecessor per node, so traversals from
    /// different starting points cover disjoint segments of long cycles
    /// instead of funneling into a small attractor (which an ordinary
    /// hash-mod successor would do).
    fn succ(&self, node: u64) -> u64 {
        const KEYS: [u64; 4] = [0x9E37, 0x85EB, 0xC2B2, 0x27D4];
        let mut l = (node >> 10) & 0x3FF;
        let mut r = node & 0x3FF;
        for key in KEYS {
            let f = (r.wrapping_mul(0x9E37_79B9).wrapping_add(key) >> 7) & 0x3FF;
            let (nl, nr) = (r, l ^ f);
            l = nl;
            r = nr;
        }
        (l << 10) | r
    }
}

impl Workload for PmdkLinkedList {
    fn name(&self) -> &str {
        "LinkedList"
    }

    fn mkpt_enabled(&self) -> bool {
        self.mkpt
    }

    fn set_mkpt(&mut self, enabled: bool) {
        self.mkpt = enabled;
    }

    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let mut out = Vec::new();
        let mut emitted = 0u64;
        while emitted < instructions {
            out.push(TraceOp::compute(20));
            emitted += 20;
            // Traverse 32 nodes of the fixed list from a random start.
            let mut node = self.rng.range_u64(0, self.nodes);
            for _ in 0..32 {
                let v = VirtAddr::new(HEAP + node * 128);
                out.push(if self.mkpt {
                    TraceOp::chase_mkpt(v)
                } else {
                    TraceOp::chase(v)
                });
                node = self.succ(node);
                emitted += 1;
            }
            // Occasionally append.
            if self.rng.chance(0.1) {
                let v = VirtAddr::new(HEAP + node * 128);
                out.push(TraceOp::store(v));
                out.push(TraceOp::Clwb { vaddr: v });
                out.push(TraceOp::Fence);
                emitted += 3;
            }
        }
        out
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// Checkpoint state
// ---------------------------------------------------------------------
//
// Only *cursor* state is captured (RNG, stream positions, mkpt flag);
// structural parameters fixed at construction (footprints, chain lengths,
// Zipfian tables) are re-derived by the constructor and validated where
// cheap. Section tags 0x50–0x55.

const SECTION_REDIS: u16 = 0x50;
const SECTION_YCSB: u16 = 0x51;
const SECTION_TPCC: u16 = 0x52;
const SECTION_FIO: u16 = 0x53;
const SECTION_PMDK_HASHMAP: u16 = 0x54;
const SECTION_PMDK_LINKEDLIST: u16 = 0x55;

impl Snapshot for Redis {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_REDIS);
        self.rng.save(w);
        w.put_bool(self.mkpt);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_REDIS)?;
        self.rng.restore(r)?;
        self.mkpt = r.get_bool()?;
        Ok(())
    }
}

impl Snapshot for Ycsb {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_YCSB);
        self.rng.save(w);
        w.put_bool(self.mkpt);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_YCSB)?;
        self.rng.restore(r)?;
        self.mkpt = r.get_bool()?;
        Ok(())
    }
}

impl Snapshot for Tpcc {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_TPCC);
        self.rng.save(w);
        w.put_bool(self.mkpt);
        w.put_u64(self.log_cursor);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_TPCC)?;
        self.rng.restore(r)?;
        self.mkpt = r.get_bool()?;
        self.log_cursor = r.get_u64()?;
        Ok(())
    }
}

impl Snapshot for FioWrite {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_FIO);
        w.put_u64(self.cursor);
        w.put_bool(self.mkpt);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_FIO)?;
        let cursor = r.get_u64()?;
        if cursor >= self.span_lines {
            return Err(r.invalid("stream cursor beyond this configuration's span"));
        }
        self.cursor = cursor;
        self.mkpt = r.get_bool()?;
        Ok(())
    }
}

impl Snapshot for PmdkHashMap {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_PMDK_HASHMAP);
        self.rng.save(w);
        w.put_bool(self.mkpt);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_PMDK_HASHMAP)?;
        self.rng.restore(r)?;
        self.mkpt = r.get_bool()?;
        Ok(())
    }
}

impl Snapshot for PmdkLinkedList {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_PMDK_LINKEDLIST);
        self.rng.save(w);
        w.put_bool(self.mkpt);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_PMDK_LINKEDLIST)?;
        self.rng.restore(r)?;
        self.mkpt = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_cpu::OpClass;

    fn class_counts(trace: &[TraceOp]) -> (u64, u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        let mut compute = 0;
        for op in trace {
            match op.class() {
                OpClass::Read => reads += op.instructions(),
                OpClass::Write => writes += op.instructions(),
                OpClass::Compute => compute += op.instructions(),
            }
        }
        (reads, writes, compute)
    }

    #[test]
    fn redis_is_read_dominated_and_dependent() {
        let mut w = Redis::new(1);
        let trace = w.generate(100_000);
        let (reads, writes, _) = class_counts(&trace);
        assert!(reads > writes * 5, "reads {reads} writes {writes}");
        let dependent = trace
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    TraceOp::Load {
                        dependent: true,
                        ..
                    }
                )
            })
            .count() as u64;
        assert!(dependent * 2 > reads, "Redis loads should chase pointers");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test-only tallies; the assertions never depend on iteration order"
    )]
    fn ycsb_concentrates_writes_on_ten_lines() {
        let mut w = Ycsb::new(1);
        let trace = w.generate(500_000);
        let hot: std::collections::HashSet<u64> =
            Ycsb::hot_lines().iter().map(|v| v.raw() / 64).collect();
        let mut per_line: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for op in &trace {
            if let TraceOp::Store { vaddr, .. } = op {
                *per_line.entry(vaddr.raw() / 64).or_insert(0) += 1;
            }
        }
        let hot_writes: u64 = per_line
            .iter()
            .filter(|(l, _)| hot.contains(l))
            .map(|(_, c)| c)
            .sum();
        let max_cold = per_line
            .iter()
            .filter(|(l, _)| !hot.contains(l))
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0);
        let avg_hot = hot_writes / 10;
        assert!(
            avg_hot > max_cold * 10,
            "hot lines ({avg_hot}/line) must dwarf the hottest record line ({max_cold})"
        );
    }

    #[test]
    fn fio_is_sequential_nt_stores() {
        let mut w = FioWrite::new(1);
        let trace = w.generate(10_000);
        let mut prev: Option<u64> = None;
        let mut sequential = 0u64;
        let mut nt = 0u64;
        for op in &trace {
            if let TraceOp::Store {
                vaddr,
                non_temporal,
            } = op
            {
                assert!(non_temporal);
                nt += 1;
                if let Some(p) = prev {
                    if vaddr.raw() == p + 64 {
                        sequential += 1;
                    }
                }
                prev = Some(vaddr.raw());
            }
        }
        assert!(nt > 1000);
        assert!(sequential * 10 > nt * 9, "stream must be sequential");
    }

    #[test]
    fn tpcc_mixes_reads_updates_and_log() {
        let mut w = Tpcc::new(1);
        let trace = w.generate(100_000);
        let fences = trace
            .iter()
            .filter(|op| matches!(op, TraceOp::Fence))
            .count();
        let nt = trace
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    TraceOp::Store {
                        non_temporal: true,
                        ..
                    }
                )
            })
            .count();
        let clwb = trace
            .iter()
            .filter(|op| matches!(op, TraceOp::Clwb { .. }))
            .count();
        assert!(fences > 50, "transactions commit with fences");
        assert!(nt > 100, "log appends are NT stores");
        assert!(clwb > 100, "row updates use clwb");
    }

    #[test]
    fn pmdk_workloads_persist_updates() {
        for mut w in [
            Box::new(PmdkHashMap::new(1)) as Box<dyn Workload>,
            Box::new(PmdkLinkedList::new(1)),
        ] {
            let trace = w.generate(100_000);
            let stores = trace
                .iter()
                .filter(|op| matches!(op, TraceOp::Store { .. }))
                .count();
            let clwb = trace
                .iter()
                .filter(|op| matches!(op, TraceOp::Clwb { .. }))
                .count();
            assert!(stores > 0, "{}", w.name());
            assert_eq!(stores, clwb, "{}: every store is persisted", w.name());
        }
    }

    #[test]
    fn mkpt_flag_marks_chases() {
        let mut w = PmdkLinkedList::new(1);
        w.set_mkpt(true);
        assert!(w.mkpt_enabled());
        let trace = w.generate(10_000);
        let marked = trace
            .iter()
            .filter(|op| matches!(op, TraceOp::Load { mkpt: true, .. }))
            .count();
        assert!(marked > 100);
    }

    #[test]
    fn fig13_set_is_complete_and_ordered() {
        let ws = fig13_workloads(7);
        let names: Vec<&str> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "FIO-write",
                "YCSB",
                "TPCC",
                "HashMap",
                "Redis",
                "LinkedList"
            ]
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = Redis::new(9);
        let mut b = Redis::new(9);
        assert_eq!(a.generate(20_000), b.generate(20_000));
    }

    #[test]
    fn all_fig13_workloads_checkpoint_mid_stream() {
        for mut w in fig13_workloads(3) {
            // Advance, checkpoint, then compare continuations.
            w.generate(50_000);
            let blob = w.save_state().unwrap_or_else(|| {
                panic!("{} must support checkpointing", w.name());
            });
            let mut fresh = fig13_workloads(3)
                .into_iter()
                .find(|f| f.name() == w.name())
                .unwrap();
            assert!(fresh.restore_state(&blob).unwrap(), "{}", w.name());
            assert_eq!(
                w.generate(20_000),
                fresh.generate(20_000),
                "{}: restored generator must continue the identical trace",
                w.name()
            );
        }
    }

    #[test]
    fn restore_rejects_cross_workload_blobs() {
        let redis = Redis::new(1);
        let blob = redis.save_state().unwrap();
        let mut ycsb = Ycsb::new(1);
        assert!(ycsb.restore_state(&blob).is_err());
    }
}
