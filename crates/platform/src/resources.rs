//! The resource algebra: requests, placements, and the bookkeeping pool.
//!
//! Everything that schedules in this reproduction — the Flux-like instance
//! scheduler, the Dragon-like runtime, RP's agent scheduler — does so against
//! a [`ResourcePool`]: a set of nodes with per-core and per-GPU occupancy
//! bitmaps. Correctness here (no double-booking, exact free/alloc inverses)
//! is what makes the utilization numbers of the experiments meaningful, so
//! the invariants are enforced with debug assertions and property tests.

use crate::node::{NodeId, NodeSpec};
use rp_sim::Reject;
use std::cell::RefCell;

/// How ranks of a request may be laid out across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Fill nodes in order (maximizes packing; the default for
    /// high-throughput single-core tasks).
    #[default]
    Pack,
    /// One rank per node at most (MPI-style spread).
    Spread,
    /// Ranks get whole nodes regardless of per-rank core count.
    NodeExclusive,
}

/// A resource request for one task: `ranks` identical ranks, each needing
/// `cores_per_rank` cores and `gpus_per_rank` GPUs, co-scheduled atomically
/// (all ranks or none — the paper's tightly coupled MPI semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Number of ranks (processes).
    pub ranks: u32,
    /// Cores per rank.
    pub cores_per_rank: u16,
    /// GPUs per rank.
    pub gpus_per_rank: u16,
    /// Memory per rank, GiB (0 = unconstrained). Jobspecs carry memory
    /// requirements (§3.2.1); the pool refuses placements whose summed
    /// per-node memory would exceed the node's capacity.
    pub mem_per_rank_gb: u32,
    /// Layout policy.
    pub policy: PlacementPolicy,
}

impl ResourceRequest {
    /// A single-rank request (the shape of every synthetic-workload task).
    pub fn single(cores: u16, gpus: u16) -> Self {
        ResourceRequest {
            ranks: 1,
            cores_per_rank: cores,
            gpus_per_rank: gpus,
            mem_per_rank_gb: 0,
            policy: PlacementPolicy::Pack,
        }
    }

    /// Builder: set the per-rank memory requirement.
    pub fn with_mem(mut self, mem_per_rank_gb: u32) -> Self {
        self.mem_per_rank_gb = mem_per_rank_gb;
        self
    }

    /// An MPI-style request: `ranks` ranks spread one per node.
    pub fn mpi(ranks: u32, cores_per_rank: u16, gpus_per_rank: u16) -> Self {
        ResourceRequest {
            ranks,
            cores_per_rank,
            gpus_per_rank,
            mem_per_rank_gb: 0,
            policy: PlacementPolicy::Spread,
        }
    }

    /// Total cores this request occupies while running.
    pub fn total_cores(&self) -> u64 {
        self.ranks as u64 * self.cores_per_rank as u64
    }

    /// Total GPUs this request occupies while running.
    pub fn total_gpus(&self) -> u64 {
        self.ranks as u64 * self.gpus_per_rank as u64
    }

    /// Why this request cannot be placed with `free_cores` and
    /// `free_gpus` free: too few cores, else too few GPUs, else the free
    /// capacity sits on the wrong nodes.
    pub fn shortfall(&self, free_cores: u64, free_gpus: u64) -> Reject {
        if self.total_cores() > free_cores {
            Reject::Cores
        } else if self.total_gpus() > free_gpus {
            Reject::Gpus
        } else {
            Reject::Fragmentation
        }
    }
}

/// The concrete resources backing one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    /// Global node id.
    pub node: NodeId,
    /// Pool-local node index (used by [`ResourcePool::free`]).
    pub node_idx: u32,
    /// Bitmask of occupied cores on that node.
    pub core_mask: u64,
    /// Bitmask of occupied GPUs on that node.
    pub gpu_mask: u16,
    /// Memory held on that node, GiB.
    pub mem_gb: u32,
}

/// The concrete resources backing one task; returned by a successful
/// allocation and required to free it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// One entry per rank.
    pub ranks: Vec<RankPlacement>,
}

impl Placement {
    /// Total cores held.
    pub fn cores(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.core_mask.count_ones() as u64)
            .sum()
    }

    /// Total GPUs held.
    pub fn gpus(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.gpu_mask.count_ones() as u64)
            .sum()
    }

    /// Distinct nodes touched.
    pub fn node_count(&self) -> usize {
        let mut nodes: Vec<u32> = self.ranks.iter().map(|r| r.node_idx).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

#[derive(Debug, Clone)]
struct NodeFree {
    id: NodeId,
    /// 1-bits are FREE cores.
    cores: u64,
    /// 1-bits are FREE gpus.
    gpus: u16,
    /// Free memory, GiB.
    mem_gb: u32,
    /// Out of service (fault injection). The free masks keep tracking what
    /// *would* be free — frees park into them — but the node contributes
    /// nothing to the pool totals and both planners skip it until
    /// [`ResourcePool::node_up`].
    down: bool,
}

impl NodeFree {
    /// Free-count triple the [`FitIndex`] sees: forced to zero while the
    /// node is down, so the indexed planner skips it exactly like the
    /// linear scan's `down` check.
    fn index_counts(&self) -> (u16, u16, u32) {
        if self.down {
            (0, 0, 0)
        } else {
            (
                self.cores.count_ones() as u16,
                self.gpus.count_ones() as u16,
                self.mem_gb,
            )
        }
    }
}

/// A segment tree over the pool's nodes holding per-subtree maxima of
/// `(free core count, free GPU count, free memory)`.
///
/// Rank eligibility in [`carve`] is purely count-based — a rank fits a node
/// iff `popcount(free_cores) >= cores && popcount(free_gpus) >= gpus &&
/// free_mem >= mem`, never contiguity — so "leftmost node at index ≥ lo
/// where a rank fits" is answerable from these maxima in O(log n). The
/// descent prefers the left child, which makes the result *exactly* the
/// node a left-to-right linear scan would pick; the original linear scan is
/// kept verbatim as `plan_linear` (also the production path for wide
/// requests) and differential tests assert placement-for-placement
/// equality.
///
/// Internal maxima are taken per component, so an internal node can look
/// eligible when no single leaf below it is (core max from one leaf, GPU
/// max from another); the descent then discards that subtree in O(log n).
/// Worst case degrades to the linear scan's O(n); the dominant single-core
/// no-GPU requests never produce such false positives.
#[derive(Debug, Clone)]
struct FitIndex {
    /// Number of real leaves (pool nodes).
    n: usize,
    /// Leaf `i` lives at `base + i`; `base` is a power of two. Padding
    /// leaves hold zero free resources.
    base: usize,
    max_cores: Vec<u16>,
    max_gpus: Vec<u16>,
    max_mem: Vec<u32>,
}

impl FitIndex {
    /// Sentinel for pools that opt out of index maintenance (scratch
    /// clones used for what-if planning): no storage, never consulted.
    fn disabled() -> Self {
        FitIndex {
            n: 0,
            base: 0,
            max_cores: Vec::new(),
            max_gpus: Vec::new(),
            max_mem: Vec::new(),
        }
    }

    fn is_disabled(&self) -> bool {
        self.max_cores.is_empty()
    }

    fn build(nodes: &[NodeFree]) -> Self {
        let n = nodes.len();
        let base = n.next_power_of_two().max(1);
        let mut idx = FitIndex {
            n,
            base,
            max_cores: vec![0; 2 * base],
            max_gpus: vec![0; 2 * base],
            max_mem: vec![0; 2 * base],
        };
        for (i, node) in nodes.iter().enumerate() {
            let (c, g, m) = node.index_counts();
            idx.max_cores[base + i] = c;
            idx.max_gpus[base + i] = g;
            idx.max_mem[base + i] = m;
        }
        for i in (1..base).rev() {
            idx.pull_up(i);
        }
        idx
    }

    #[inline]
    fn pull_up(&mut self, i: usize) {
        self.max_cores[i] = self.max_cores[2 * i].max(self.max_cores[2 * i + 1]);
        self.max_gpus[i] = self.max_gpus[2 * i].max(self.max_gpus[2 * i + 1]);
        self.max_mem[i] = self.max_mem[2 * i].max(self.max_mem[2 * i + 1]);
    }

    /// Refresh leaf `idx` from its node's current free state. Pull-ups stop
    /// as soon as an ancestor's maxima are unchanged (typical when a
    /// sibling subtree dominates — e.g. packing one node of a mostly-free
    /// pool), making the common update O(1) amortized.
    fn update(&mut self, idx: usize, node: &NodeFree) {
        let mut i = self.base + idx;
        let (c, g, m) = node.index_counts();
        self.max_cores[i] = c;
        self.max_gpus[i] = g;
        self.max_mem[i] = m;
        i /= 2;
        while i >= 1 {
            let before = (self.max_cores[i], self.max_gpus[i], self.max_mem[i]);
            self.pull_up(i);
            if (self.max_cores[i], self.max_gpus[i], self.max_mem[i]) == before {
                break;
            }
            i /= 2;
        }
    }

    /// Refresh every leaf and rebuild all internal maxima in one O(n)
    /// bottom-up pass. Cheaper than per-leaf `update` when a single
    /// placement touches a large fraction of the pool (wide MPI jobs:
    /// k·log n pull-ups vs n+k work).
    fn rebuild(&mut self, nodes: &[NodeFree]) {
        for (i, node) in nodes.iter().enumerate() {
            let (c, g, m) = node.index_counts();
            self.max_cores[self.base + i] = c;
            self.max_gpus[self.base + i] = g;
            self.max_mem[self.base + i] = m;
        }
        for i in (1..self.base).rev() {
            self.pull_up(i);
        }
    }

    /// Leftmost node index `>= lo` whose free counts satisfy the rank
    /// thresholds, or `None`.
    fn find_first(&self, lo: usize, cores: u16, gpus: u16, mem: u32) -> Option<usize> {
        if self.n == 0 || lo >= self.n {
            return None;
        }
        // Fast path: when `lo` itself is eligible it is by definition the
        // leftmost answer — the shape of every Pack alloc on a mostly-free
        // pool (the `first_not_full` node keeps fitting), restoring the
        // O(1) behavior the linear scan had there.
        let leaf = self.base + lo;
        if self.max_cores[leaf] >= cores && self.max_gpus[leaf] >= gpus && self.max_mem[leaf] >= mem
        {
            return Some(lo);
        }
        self.descend(1, 0, self.base, lo, cores, gpus, mem)
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        i: usize,
        seg_lo: usize,
        seg_hi: usize,
        lo: usize,
        cores: u16,
        gpus: u16,
        mem: u32,
    ) -> Option<usize> {
        if seg_hi <= lo || seg_lo >= self.n {
            return None;
        }
        if self.max_cores[i] < cores || self.max_gpus[i] < gpus || self.max_mem[i] < mem {
            return None;
        }
        if seg_hi - seg_lo == 1 {
            return Some(seg_lo);
        }
        let mid = seg_lo.midpoint(seg_hi);
        self.descend(2 * i, seg_lo, mid, lo, cores, gpus, mem)
            .or_else(|| self.descend(2 * i + 1, mid, seg_hi, lo, cores, gpus, mem))
    }
}

/// Occupancy bookkeeping over a fixed set of nodes.
///
/// ```
/// use rp_platform::{frontier, ResourcePool, ResourceRequest};
///
/// // Two Frontier nodes: 112 cores, 16 GPUs.
/// let mut pool = ResourcePool::over_range(frontier().node, 0, 2);
/// let task = pool
///     .try_alloc(&ResourceRequest::mpi(2, 56, 8)) // whole machine
///     .expect("fits an empty pool");
/// assert_eq!(pool.free_cores(), 0);
/// assert!(pool.try_alloc(&ResourceRequest::single(1, 0)).is_none());
/// pool.free(&task);
/// assert_eq!(pool.free_cores(), 112);
/// ```
#[derive(Debug, Clone)]
pub struct ResourcePool {
    spec: NodeSpec,
    nodes: Vec<NodeFree>,
    free_cores: u64,
    free_gpus: u64,
    /// Index of the first node that is not *completely* occupied; nodes
    /// below it are fully busy, so Pack planning may skip them. Purely a
    /// scan accelerator — never changes placement decisions, because only
    /// exhausted nodes are skipped.
    first_not_full: usize,
    /// Count-maxima segment tree answering "leftmost node where a rank
    /// fits" in O(log n); returns exactly what the linear first-fit scan
    /// would (see [`FitIndex`]).
    index: FitIndex,
    /// Whether the index's maxima lag the free state. Wide placements
    /// (a large fraction of the pool) mark the index stale instead of
    /// paying an O(n) rebuild per commit; planning falls back to the
    /// always-correct linear scan while stale, and the next narrow
    /// `try_alloc` repairs the index with a single rebuild. Workloads of
    /// mostly-wide jobs therefore never rebuild at all.
    index_stale: bool,
    /// Monotone state stamp: bumped by every committed alloc/free, so
    /// cached plans can tell whether the free state they saw is current.
    version: u64,
    /// One-slot memo of the most recent plan. Schedulers probe feasibility
    /// (`fits_now`) and then commit (`try_alloc`) with the same request,
    /// and re-probe blocked queue heads after every event; both patterns
    /// hit this slot and skip the whole planning pass.
    plan_cache: RefCell<Option<PlanCache>>,
}

/// See [`ResourcePool::plan_cache`].
#[derive(Debug, Clone)]
struct PlanCache {
    version: u64,
    req: ResourceRequest,
    plan: Option<Placement>,
}

impl ResourcePool {
    /// A pool over `node_ids`, all initially free, each shaped by `spec`.
    pub fn new(spec: NodeSpec, node_ids: impl IntoIterator<Item = NodeId>) -> Self {
        spec.validate();
        let full_cores = mask_of(spec.cores);
        let full_gpus = mask_of(spec.gpus) as u16;
        let nodes: Vec<NodeFree> = node_ids
            .into_iter()
            .map(|id| NodeFree {
                id,
                cores: full_cores,
                gpus: full_gpus,
                mem_gb: spec.mem_gb,
                down: false,
            })
            .collect();
        let free_cores = nodes.len() as u64 * spec.cores as u64;
        let free_gpus = nodes.len() as u64 * spec.gpus as u64;
        let index = FitIndex::build(&nodes);
        ResourcePool {
            spec,
            nodes,
            free_cores,
            free_gpus,
            first_not_full: 0,
            index,
            index_stale: false,
            version: 0,
            plan_cache: RefCell::new(None),
        }
    }

    /// Convenience: a pool over nodes `first..first+count`.
    pub fn over_range(spec: NodeSpec, first: u32, count: u32) -> Self {
        Self::new(spec, (first..first + count).map(NodeId))
    }

    /// The node shape.
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// Number of nodes in the pool.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Currently free cores across the pool.
    pub fn free_cores(&self) -> u64 {
        self.free_cores
    }

    /// Currently free GPUs across the pool.
    pub fn free_gpus(&self) -> u64 {
        self.free_gpus
    }

    /// Total cores in the pool (free + busy).
    pub fn total_cores(&self) -> u64 {
        self.nodes.len() as u64 * self.spec.cores as u64
    }

    /// Total GPUs in the pool (free + busy).
    pub fn total_gpus(&self) -> u64 {
        self.nodes.len() as u64 * self.spec.gpus as u64
    }

    /// Cores currently allocated.
    pub fn busy_cores(&self) -> u64 {
        self.total_cores() - self.free_cores
    }

    /// GPUs currently allocated.
    pub fn busy_gpus(&self) -> u64 {
        self.total_gpus() - self.free_gpus
    }

    /// Whether `req` could ever fit in an empty pool of this shape — the
    /// feasibility check schedulers run before queueing, so an oversized
    /// task fails fast instead of wedging a FIFO queue forever.
    pub fn can_ever_fit(&self, req: &ResourceRequest) -> bool {
        if req.ranks == 0 {
            return false;
        }
        if req.cores_per_rank == 0 && req.gpus_per_rank == 0 {
            return false;
        }
        if req.cores_per_rank > self.spec.cores
            || req.gpus_per_rank > self.spec.gpus
            || req.mem_per_rank_gb > self.spec.mem_gb
        {
            return false;
        }
        let nodes = self.nodes.len() as u64;
        match req.policy {
            PlacementPolicy::Spread | PlacementPolicy::NodeExclusive => req.ranks as u64 <= nodes,
            PlacementPolicy::Pack => {
                let per_node = self.ranks_fitting_empty_node(req);
                per_node > 0 && req.ranks as u64 <= nodes * per_node
            }
        }
    }

    fn ranks_fitting_empty_node(&self, req: &ResourceRequest) -> u64 {
        let by_cores = if req.cores_per_rank == 0 {
            u64::MAX
        } else {
            self.spec.cores as u64 / req.cores_per_rank as u64
        };
        let by_gpus = if req.gpus_per_rank == 0 {
            u64::MAX
        } else if self.spec.gpus == 0 {
            0
        } else {
            self.spec.gpus as u64 / req.gpus_per_rank as u64
        };
        let by_mem = if req.mem_per_rank_gb == 0 {
            u64::MAX
        } else {
            self.spec.mem_gb as u64 / req.mem_per_rank_gb as u64
        };
        by_cores.min(by_gpus).min(by_mem)
    }

    /// Clone for what-if planning (backfill shadow pools): identical
    /// placement behavior through the linear planner, but no [`FitIndex`]
    /// maintenance — a throwaway clone that frees many wide placements
    /// would otherwise pay an O(n) index rebuild per free.
    pub fn scratch_clone(&self) -> ResourcePool {
        ResourcePool {
            spec: self.spec,
            nodes: self.nodes.clone(),
            free_cores: self.free_cores,
            free_gpus: self.free_gpus,
            first_not_full: self.first_not_full,
            index: FitIndex::disabled(),
            index_stale: false,
            version: self.version,
            plan_cache: self.plan_cache.clone(),
        }
    }

    /// Try to place `req`. On success every rank's cores/GPUs are marked
    /// busy and the exact placement is returned; on failure the pool is
    /// untouched. Placement is deterministic: first-fit in node order.
    pub fn try_alloc(&mut self, req: &ResourceRequest) -> Option<Placement> {
        if req.ranks == 0 {
            return None;
        }
        // Fast reject on aggregate counts.
        if req.total_cores() > self.free_cores || req.total_gpus() > self.free_gpus {
            return None;
        }

        let indexed = !self.index.is_disabled();
        // A narrow request wants the indexed planner; repair a stale index
        // first. One O(n) rebuild here amortizes every wide commit since
        // the last narrow alloc.
        if indexed && self.index_stale && (req.ranks as usize) * 8 < self.nodes.len() {
            self.index.rebuild(&self.nodes);
            self.index_stale = false;
        }

        let plan = self.plan_take_cached(req)?;
        self.version += 1;
        // Commit. Ranks on the same node are consecutive in plan order, so
        // one index refresh per touched node suffices; a placement touching
        // a large fraction of the pool just marks the index stale — the
        // next narrow alloc rebuilds it once, and all-wide workloads never
        // pay for it.
        let maintain = indexed && !self.index_stale;
        let wide = plan.ranks.len() * 8 >= self.nodes.len();
        let mut dirty: Option<u32> = None;
        for r in &plan.ranks {
            let n = &mut self.nodes[r.node_idx as usize];
            debug_assert_eq!(n.cores & r.core_mask, r.core_mask, "double-booked cores");
            debug_assert_eq!(n.gpus & r.gpu_mask, r.gpu_mask, "double-booked gpus");
            debug_assert!(n.mem_gb >= r.mem_gb, "double-booked memory");
            n.cores &= !r.core_mask;
            n.gpus &= !r.gpu_mask;
            n.mem_gb -= r.mem_gb;
            self.free_cores -= r.core_mask.count_ones() as u64;
            self.free_gpus -= r.gpu_mask.count_ones() as u64;
            if maintain && !wide {
                if dirty.is_some_and(|d| d != r.node_idx) {
                    let d = dirty.expect("checked") as usize;
                    self.index.update(d, &self.nodes[d]);
                }
                dirty = Some(r.node_idx);
            }
        }
        if maintain {
            if wide {
                self.index_stale = true;
            } else if let Some(d) = dirty {
                self.index.update(d as usize, &self.nodes[d as usize]);
            }
        }
        while self.first_not_full < self.nodes.len() {
            let n = &self.nodes[self.first_not_full];
            if n.cores == 0 && n.gpus == 0 {
                self.first_not_full += 1;
            } else {
                break;
            }
        }
        Some(plan)
    }

    /// Plan without committing (used by backfill look-ahead).
    ///
    /// Hybrid dispatch: narrow requests (the single-core tasks that
    /// dominate every experiment) go through the [`FitIndex`]-driven
    /// planner, amortized O(log n) per placed rank; requests whose rank
    /// count is a large fraction of the pool fall back to the linear scan,
    /// whose O(n + k) beats k·log n there. Both planners return identical
    /// placements (differential tests prove it), so the cutover is purely
    /// a cost decision.
    fn plan(&self, req: &ResourceRequest) -> Option<Placement> {
        if self.index.is_disabled()
            || self.index_stale
            || req.ranks as usize * 8 >= self.nodes.len()
        {
            self.plan_linear(req)
        } else {
            self.plan_indexed(req)
        }
    }

    /// Index-driven planner: jump between eligible nodes via
    /// [`FitIndex::find_first`] instead of scanning every node. Placements
    /// are identical to [`ResourcePool::plan_linear`]: the index descent is
    /// left-biased, eligibility is the same count-based predicate `carve`
    /// uses, and ties therefore resolve to the same node in the same order.
    fn plan_indexed(&self, req: &ResourceRequest) -> Option<Placement> {
        let mut ranks = Vec::with_capacity(req.ranks as usize);
        match req.policy {
            PlacementPolicy::Pack => {
                let mut remaining = req.ranks;
                // Skip the fully-busy prefix (pure acceleration, exactly as
                // the linear scan did).
                let mut next = self.first_not_full;
                while remaining > 0 {
                    let idx = self.index.find_first(
                        next,
                        req.cores_per_rank,
                        req.gpus_per_rank,
                        req.mem_per_rank_gb,
                    )?;
                    let n = &self.nodes[idx];
                    // Local shadow masks so later ranks of this same request
                    // see the resources its earlier ranks already carved.
                    let mut cores = n.cores;
                    let mut gpus = n.gpus;
                    let mut mem = n.mem_gb;
                    while remaining > 0 {
                        let Some((cm, gm)) = carve(
                            cores,
                            gpus,
                            mem,
                            req.cores_per_rank,
                            req.gpus_per_rank,
                            req.mem_per_rank_gb,
                        ) else {
                            break;
                        };
                        cores &= !cm;
                        gpus &= !gm;
                        mem -= req.mem_per_rank_gb;
                        ranks.push(RankPlacement {
                            node: n.id,
                            node_idx: idx as u32,
                            core_mask: cm,
                            gpu_mask: gm,
                            mem_gb: req.mem_per_rank_gb,
                        });
                        remaining -= 1;
                    }
                    next = idx + 1;
                }
            }
            PlacementPolicy::Spread => {
                let mut remaining = req.ranks;
                let mut next = 0usize;
                while remaining > 0 {
                    let idx = self.index.find_first(
                        next,
                        req.cores_per_rank,
                        req.gpus_per_rank,
                        req.mem_per_rank_gb,
                    )?;
                    let n = &self.nodes[idx];
                    let (cm, gm) = carve(
                        n.cores,
                        n.gpus,
                        n.mem_gb,
                        req.cores_per_rank,
                        req.gpus_per_rank,
                        req.mem_per_rank_gb,
                    )
                    .expect("index said the rank fits");
                    ranks.push(RankPlacement {
                        node: n.id,
                        node_idx: idx as u32,
                        core_mask: cm,
                        gpu_mask: gm,
                        mem_gb: req.mem_per_rank_gb,
                    });
                    remaining -= 1;
                    next = idx + 1;
                }
            }
            PlacementPolicy::NodeExclusive => {
                // A node is fully free iff its free *counts* equal the spec
                // (free masks are subsets of the full mask, so count
                // equality implies mask equality) — answerable by the same
                // index query with full-node thresholds.
                let full_cores = mask_of(self.spec.cores);
                let full_gpus = mask_of(self.spec.gpus) as u16;
                let mut remaining = req.ranks;
                let mut next = 0usize;
                while remaining > 0 {
                    let idx = self.index.find_first(
                        next,
                        self.spec.cores,
                        self.spec.gpus,
                        self.spec.mem_gb,
                    )?;
                    let n = &self.nodes[idx];
                    debug_assert!(
                        n.cores == full_cores
                            && n.gpus == full_gpus
                            && n.mem_gb == self.spec.mem_gb
                    );
                    ranks.push(RankPlacement {
                        node: n.id,
                        node_idx: idx as u32,
                        core_mask: full_cores,
                        gpu_mask: full_gpus,
                        mem_gb: self.spec.mem_gb,
                    });
                    remaining -= 1;
                    next = idx + 1;
                }
            }
        }
        Some(Placement { ranks })
    }

    /// The original O(nodes) linear first-fit scan, kept verbatim. It is
    /// both the reference implementation for differential tests (`plan`
    /// must return placement-for-placement identical results) and the
    /// production path for wide requests, where one sweep over the node
    /// array beats `ranks` separate index descents.
    fn plan_linear(&self, req: &ResourceRequest) -> Option<Placement> {
        let mut ranks = Vec::with_capacity(req.ranks as usize);
        match req.policy {
            PlacementPolicy::Pack => {
                let mut remaining = req.ranks;
                // Skip the fully-busy prefix (pure acceleration).
                let start = self.first_not_full;
                for (idx, n) in self.nodes.iter().enumerate().skip(start) {
                    if remaining == 0 {
                        break;
                    }
                    if n.down {
                        continue;
                    }
                    // Local shadow masks so later ranks of this same request
                    // see the resources its earlier ranks already carved.
                    let mut cores = n.cores;
                    let mut gpus = n.gpus;
                    let mut mem = n.mem_gb;
                    while remaining > 0 {
                        let Some((cm, gm)) = carve(
                            cores,
                            gpus,
                            mem,
                            req.cores_per_rank,
                            req.gpus_per_rank,
                            req.mem_per_rank_gb,
                        ) else {
                            break;
                        };
                        cores &= !cm;
                        gpus &= !gm;
                        mem -= req.mem_per_rank_gb;
                        ranks.push(RankPlacement {
                            node: n.id,
                            node_idx: idx as u32,
                            core_mask: cm,
                            gpu_mask: gm,
                            mem_gb: req.mem_per_rank_gb,
                        });
                        remaining -= 1;
                    }
                }
                if remaining > 0 {
                    return None;
                }
            }
            PlacementPolicy::Spread => {
                let mut remaining = req.ranks;
                for (idx, n) in self.nodes.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if n.down {
                        continue;
                    }
                    if let Some((cm, gm)) = carve(
                        n.cores,
                        n.gpus,
                        n.mem_gb,
                        req.cores_per_rank,
                        req.gpus_per_rank,
                        req.mem_per_rank_gb,
                    ) {
                        ranks.push(RankPlacement {
                            node: n.id,
                            node_idx: idx as u32,
                            core_mask: cm,
                            gpu_mask: gm,
                            mem_gb: req.mem_per_rank_gb,
                        });
                        remaining -= 1;
                    }
                }
                if remaining > 0 {
                    return None;
                }
            }
            PlacementPolicy::NodeExclusive => {
                let full_cores = mask_of(self.spec.cores);
                let full_gpus = mask_of(self.spec.gpus) as u16;
                let mut remaining = req.ranks;
                for (idx, n) in self.nodes.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if n.down {
                        continue;
                    }
                    if n.cores == full_cores && n.gpus == full_gpus && n.mem_gb == self.spec.mem_gb
                    {
                        ranks.push(RankPlacement {
                            node: n.id,
                            node_idx: idx as u32,
                            core_mask: full_cores,
                            gpu_mask: full_gpus,
                            mem_gb: self.spec.mem_gb,
                        });
                        remaining -= 1;
                    }
                }
                if remaining > 0 {
                    return None;
                }
            }
        }
        Some(Placement { ranks })
    }

    /// Whether `req` fits *right now* without committing.
    pub fn fits_now(&self, req: &ResourceRequest) -> bool {
        if req.ranks == 0
            || req.total_cores() > self.free_cores
            || req.total_gpus() > self.free_gpus
        {
            return false;
        }
        self.plan_cached(req).is_some()
    }

    /// Plan through the one-slot memo: a hit costs one `u64` compare and a
    /// `Placement` clone instead of a planning pass. Correct because the
    /// planner is a pure function of the free state (stamped by
    /// `version`) and the request.
    fn plan_cached(&self, req: &ResourceRequest) -> Option<Placement> {
        if let Some(c) = self.plan_cache.borrow().as_ref() {
            if c.version == self.version && c.req == *req {
                return c.plan.clone();
            }
        }
        let plan = self.plan(req);
        *self.plan_cache.borrow_mut() = Some(PlanCache {
            version: self.version,
            req: *req,
            plan: plan.clone(),
        });
        plan
    }

    /// [`ResourcePool::plan_cached`] for the commit path: a hit is *moved*
    /// out of the cache (the commit bumps `version` immediately, so the
    /// entry dies either way) and a miss plans directly without storing.
    /// Populating the memo here would clone a plan the very next statement
    /// invalidates — for whole-machine placements that clone is the
    /// dominant cost of `try_alloc` (the `placement_spread_n1024`
    /// regression).
    fn plan_take_cached(&mut self, req: &ResourceRequest) -> Option<Placement> {
        if let Some(c) = self.plan_cache.get_mut() {
            if c.version == self.version && c.req == *req {
                return c.plan.take();
            }
        }
        self.plan(req)
    }

    /// Return a placement's resources to the pool. Freeing resources that
    /// are not currently busy is a bookkeeping bug and panics.
    pub fn free(&mut self, placement: &Placement) {
        self.version += 1;
        let maintain = !self.index.is_disabled() && !self.index_stale;
        let wide = placement.ranks.len() * 8 >= self.nodes.len();
        let mut dirty: Option<u32> = None;
        for r in &placement.ranks {
            let n = &mut self.nodes[r.node_idx as usize];
            assert_eq!(
                n.cores & r.core_mask,
                0,
                "freeing cores that were not busy on {}",
                n.id
            );
            assert_eq!(
                n.gpus & r.gpu_mask,
                0,
                "freeing gpus that were not busy on {}",
                n.id
            );
            n.cores |= r.core_mask;
            n.gpus |= r.gpu_mask;
            n.mem_gb += r.mem_gb;
            assert!(
                n.mem_gb <= self.spec.mem_gb,
                "freeing more memory than the node has on {}",
                n.id
            );
            if n.down {
                // Parked: the node is out of service, so these resources do
                // not return to the pool totals (node_up re-counts them) and
                // the index leaf stays zero.
                continue;
            }
            self.free_cores += r.core_mask.count_ones() as u64;
            self.free_gpus += r.gpu_mask.count_ones() as u64;
            self.first_not_full = self.first_not_full.min(r.node_idx as usize);
            if maintain && !wide {
                if dirty.is_some_and(|d| d != r.node_idx) {
                    let d = dirty.expect("checked") as usize;
                    self.index.update(d, &self.nodes[d]);
                }
                dirty = Some(r.node_idx);
            }
        }
        if maintain {
            if wide {
                self.index_stale = true;
            } else if let Some(d) = dirty {
                self.index.update(d as usize, &self.nodes[d as usize]);
            }
        }
        debug_assert!(self.free_cores <= self.total_cores());
        debug_assert!(self.free_gpus <= self.total_gpus());
    }

    /// Take node `idx` out of service (fault injection). Its free capacity
    /// vanishes from the pool totals and both planners skip it; resources
    /// still held by placements stay attributed until those placements are
    /// freed (they park on the node rather than returning to the totals).
    /// Returns `false` when the node was already down.
    pub fn node_down(&mut self, idx: usize) -> bool {
        if self.nodes[idx].down {
            return false;
        }
        self.nodes[idx].down = true;
        self.free_cores -= self.nodes[idx].cores.count_ones() as u64;
        self.free_gpus -= self.nodes[idx].gpus.count_ones() as u64;
        self.version += 1;
        if !self.index.is_disabled() && !self.index_stale {
            self.index.update(idx, &self.nodes[idx]);
        }
        true
    }

    /// Return node `idx` to service: whatever is free on it (including
    /// resources parked by frees during the outage) rejoins the pool
    /// totals and both planners. Returns `false` when the node was not
    /// down.
    pub fn node_up(&mut self, idx: usize) -> bool {
        if !self.nodes[idx].down {
            return false;
        }
        self.nodes[idx].down = false;
        self.free_cores += self.nodes[idx].cores.count_ones() as u64;
        self.free_gpus += self.nodes[idx].gpus.count_ones() as u64;
        self.first_not_full = self.first_not_full.min(idx);
        self.version += 1;
        if !self.index.is_disabled() && !self.index_stale {
            self.index.update(idx, &self.nodes[idx]);
        }
        true
    }

    /// Whether node `idx` is currently out of service.
    pub fn is_node_down(&self, idx: usize) -> bool {
        self.nodes[idx].down
    }

    /// Number of nodes currently out of service.
    pub fn down_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.down).count()
    }
}

/// Lowest `n` bits set.
fn mask_of(n: u16) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Carve `cores`/`gpus`/`mem` out of a node's free resources, lowest bit
/// indices first. Returns the occupied masks, or `None` if they don't fit.
fn carve(
    free_cores: u64,
    free_gpus: u16,
    free_mem: u32,
    cores: u16,
    gpus: u16,
    mem: u32,
) -> Option<(u64, u16)> {
    if (free_cores.count_ones() as u16) < cores
        || (free_gpus.count_ones() as u16) < gpus
        || free_mem < mem
    {
        return None;
    }
    Some((
        lowest_bits(free_cores, cores as u32),
        lowest_bits(free_gpus as u64, gpus as u32) as u16,
    ))
}

/// The lowest `want` set bits of `mask` (caller guarantees enough bits).
fn lowest_bits(mut mask: u64, want: u32) -> u64 {
    let mut out = 0u64;
    for _ in 0..want {
        let bit = mask & mask.wrapping_neg(); // lowest set bit
        out |= bit;
        mask ^= bit;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::frontier;

    fn pool(nodes: u32) -> ResourcePool {
        ResourcePool::over_range(frontier().node, 0, nodes)
    }

    #[test]
    fn single_core_pack_fills_node_in_order() {
        let mut p = pool(2);
        let req = ResourceRequest::single(1, 0);
        for i in 0..56 {
            let pl = p.try_alloc(&req).expect("fits");
            assert_eq!(pl.ranks[0].node, NodeId(0), "task {i} should pack node 0");
        }
        let pl = p.try_alloc(&req).unwrap();
        assert_eq!(pl.ranks[0].node, NodeId(1));
        assert_eq!(p.busy_cores(), 57);
    }

    #[test]
    fn shortfall_names_cores_then_gpus_then_fragmentation() {
        let mut p = pool(2);
        // 30 cores busy on each node: 52 cores free, but no node has 27.
        let big = ResourceRequest::single(30, 4);
        let held = [p.try_alloc(&big).unwrap(), p.try_alloc(&big).unwrap()];
        assert_ne!(held[0].ranks[0].node, held[1].ranks[0].node);
        let (cores, gpus) = (p.free_cores(), p.free_gpus());
        let shortfall = |req: ResourceRequest| req.shortfall(cores, gpus);
        assert_eq!(shortfall(ResourceRequest::single(53, 0)), Reject::Cores);
        assert_eq!(shortfall(ResourceRequest::single(1, 9)), Reject::Gpus);
        let wide = ResourceRequest::single(27, 0);
        assert!(p.try_alloc(&wide).is_none());
        assert_eq!(shortfall(wide), Reject::Fragmentation);
    }

    #[test]
    fn alloc_free_roundtrip_restores_pool() {
        let mut p = pool(4);
        let req = ResourceRequest::mpi(4, 56, 8);
        let before = (p.free_cores(), p.free_gpus());
        let pl = p.try_alloc(&req).expect("fits");
        assert_eq!(p.free_cores(), 0);
        assert_eq!(p.free_gpus(), 0);
        p.free(&pl);
        assert_eq!((p.free_cores(), p.free_gpus()), before);
    }

    #[test]
    fn atomic_coscheduling_all_or_nothing() {
        let mut p = pool(2);
        // Occupy one core on node 1 so a 2-node exclusive request can't fit.
        let filler = p
            .try_alloc(&ResourceRequest {
                mem_per_rank_gb: 0,
                ranks: 1,
                cores_per_rank: 1,
                gpus_per_rank: 0,
                policy: PlacementPolicy::Pack,
            })
            .unwrap();
        let req = ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 2,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::NodeExclusive,
        };
        let free_before = p.free_cores();
        assert!(p.try_alloc(&req).is_none(), "partial placement must fail");
        assert_eq!(p.free_cores(), free_before, "failed alloc must not leak");
        p.free(&filler);
        assert!(p.try_alloc(&req).is_some());
    }

    #[test]
    fn spread_places_one_rank_per_node() {
        let mut p = pool(3);
        let pl = p.try_alloc(&ResourceRequest::mpi(3, 8, 1)).unwrap();
        let mut nodes: Vec<_> = pl.ranks.iter().map(|r| r.node).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
        assert_eq!(pl.cores(), 24);
        assert_eq!(pl.gpus(), 3);
    }

    #[test]
    fn spread_needs_enough_nodes() {
        let mut p = pool(2);
        assert!(p.try_alloc(&ResourceRequest::mpi(3, 1, 0)).is_none());
        assert!(!p.can_ever_fit(&ResourceRequest::mpi(3, 1, 0)));
    }

    #[test]
    fn gpu_exhaustion_blocks() {
        let mut p = pool(1);
        let req = ResourceRequest::single(1, 8);
        assert!(p.try_alloc(&req).is_some());
        assert!(p.try_alloc(&req).is_none(), "no gpus left");
        // but a cpu-only task still fits
        assert!(p.try_alloc(&ResourceRequest::single(1, 0)).is_some());
    }

    #[test]
    fn can_ever_fit_rejects_oversized() {
        let p = pool(4);
        assert!(!p.can_ever_fit(&ResourceRequest::single(57, 0)));
        assert!(!p.can_ever_fit(&ResourceRequest::single(1, 9)));
        assert!(!p.can_ever_fit(&ResourceRequest::single(0, 0)));
        assert!(p.can_ever_fit(&ResourceRequest::mpi(4, 56, 8)));
        // 4 nodes * 56 cores = 224 single-core ranks max
        assert!(p.can_ever_fit(&ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 224,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::Pack,
        }));
        assert!(!p.can_ever_fit(&ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 225,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::Pack,
        }));
    }

    #[test]
    fn fits_now_is_side_effect_free() {
        let mut p = pool(1);
        let req = ResourceRequest::single(56, 0);
        assert!(p.fits_now(&req));
        assert_eq!(p.free_cores(), 56);
        p.try_alloc(&req).unwrap();
        assert!(!p.fits_now(&ResourceRequest::single(1, 0)));
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn double_free_panics() {
        let mut p = pool(1);
        let pl = p.try_alloc(&ResourceRequest::single(2, 0)).unwrap();
        p.free(&pl);
        p.free(&pl);
    }

    #[test]
    fn lowest_bits_picks_low_indices() {
        assert_eq!(lowest_bits(0b1011, 2), 0b0011);
        assert_eq!(lowest_bits(0b1100, 1), 0b0100);
        assert_eq!(lowest_bits(u64::MAX, 0), 0);
    }

    #[test]
    fn memory_constrains_placement() {
        // Frontier node: 512 GiB. Two 256 GiB ranks fill it; a third must
        // go to the next node even though cores remain.
        let mut p = pool(2);
        let req = ResourceRequest::single(1, 0).with_mem(256);
        let a = p.try_alloc(&req).unwrap();
        let b = p.try_alloc(&req).unwrap();
        assert_eq!(a.ranks[0].node, b.ranks[0].node, "both fit node 0");
        let c = p.try_alloc(&req).unwrap();
        assert_ne!(c.ranks[0].node, a.ranks[0].node, "memory spills to node 1");
        // A 513 GiB rank can never fit.
        assert!(!p.can_ever_fit(&ResourceRequest::single(1, 0).with_mem(513)));
        // Freeing returns the memory.
        let free_before_drop = p.free_cores();
        p.free(&a);
        p.free(&b);
        p.free(&c);
        assert_eq!(p.free_cores(), free_before_drop + 3);
        let big = ResourceRequest::single(1, 0).with_mem(512);
        assert!(p.try_alloc(&big).is_some(), "full-node memory free again");
    }

    /// Exercise the indexed planner against the linear scan over a long
    /// randomized alloc/free churn covering every policy, asserting
    /// placement-for-placement equality at every step. `plan_indexed` is
    /// called directly (not via the hybrid `plan` dispatcher) so wide
    /// requests also take the index path here, proving the dispatch cutover
    /// is purely a cost decision and never changes results.
    /// A scratch clone must make exactly the same alloc/free decisions as
    /// the indexed pool it was cloned from (backfill shadows depend on it).
    #[test]
    fn scratch_clone_matches_indexed_pool() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(64);
        let mut scratch = p.scratch_clone();
        let mut live: Vec<Placement> = Vec::new();
        for _ in 0..800 {
            let r = rng();
            if r % 5 < 3 || live.is_empty() {
                let req = match r % 4 {
                    0 => ResourceRequest::single(1, 0),
                    1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                    2 => ResourceRequest::mpi((r as u32 % 24) + 1, 56, 2),
                    _ => ResourceRequest::single(2, 1).with_mem((r as u32 % 300) + 1),
                };
                let a = p.try_alloc(&req);
                let b = scratch.try_alloc(&req);
                assert_eq!(a, b, "alloc divergence for {req:?}");
                if let Some(pl) = a {
                    live.push(pl);
                }
            } else {
                let pl = live.swap_remove(r as usize % live.len());
                p.free(&pl);
                scratch.free(&pl);
            }
            assert_eq!(p.free_cores(), scratch.free_cores());
            assert_eq!(p.free_gpus(), scratch.free_gpus());
        }
    }

    #[test]
    fn indexed_plan_matches_linear_reference() {
        // Deterministic xorshift so the test is reproducible without deps.
        let mut state = 0x9E37_79B9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(17); // odd size: exercises segment-tree padding
        let mut held: Vec<Placement> = Vec::new();
        for step in 0..4000 {
            let r = rng();
            let req = match r % 7 {
                0 => ResourceRequest::single(1, 0),
                1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                2 => ResourceRequest::single(2, 1).with_mem((r as u32 % 300) + 1),
                3 => ResourceRequest::mpi((r as u32 % 6) + 1, 8, 1),
                4 => ResourceRequest {
                    ranks: (r as u32 % 3) + 1,
                    cores_per_rank: 1,
                    gpus_per_rank: 0,
                    mem_per_rank_gb: 0,
                    policy: PlacementPolicy::NodeExclusive,
                },
                5 => ResourceRequest::single(0, 1), // GPU-only rank
                _ => ResourceRequest {
                    ranks: (r as u32 % 90) + 1,
                    cores_per_rank: 3,
                    gpus_per_rank: 0,
                    mem_per_rank_gb: 2,
                    policy: PlacementPolicy::Pack,
                },
            };
            // `plan_indexed` is only ever consulted on a fresh index (the
            // `plan` dispatcher routes stale pools to the linear scan), so
            // repair staleness before comparing the two planners.
            if p.index_stale {
                p.index.rebuild(&p.nodes);
                p.index_stale = false;
            }
            assert_eq!(
                p.plan_indexed(&req),
                p.plan_linear(&req),
                "divergence at step {step} for {req:?}"
            );
            // Mutate: alloc (keeping the placement) or free a random hold.
            if r % 3 != 0 || held.is_empty() {
                if let Some(pl) = p.try_alloc(&req) {
                    held.push(pl);
                }
            } else {
                let i = (r as usize / 7) % held.len();
                let pl = held.swap_remove(i);
                p.free(&pl);
            }
        }
        // Drain and confirm the index agrees on the fully-free pool too.
        for pl in held.drain(..) {
            p.free(&pl);
        }
        if p.index_stale {
            p.index.rebuild(&p.nodes);
            p.index_stale = false;
        }
        let req = ResourceRequest::mpi(17, 56, 8);
        assert_eq!(p.plan_indexed(&req), p.plan_linear(&req));
        assert_eq!(p.free_cores(), p.total_cores());
    }

    /// The `first_not_full` accelerator must interact with the index the
    /// same way it did with the linear scan: a GPU-only request must still
    /// find a node whose cores are exhausted but whose GPUs are free.
    #[test]
    fn gpu_only_request_finds_core_exhausted_node() {
        let mut p = pool(2);
        // Exhaust node 0's cores, leaving its GPUs free.
        let filler = p.try_alloc(&ResourceRequest::single(56, 0)).unwrap();
        assert_eq!(filler.ranks[0].node, NodeId(0));
        let req = ResourceRequest::single(0, 1);
        assert_eq!(p.plan_indexed(&req), p.plan_linear(&req));
        let pl = p.try_alloc(&req).expect("gpu free on node 0");
        assert_eq!(pl.ranks[0].node, NodeId(0), "must not skip node 0");
    }

    #[test]
    fn node_down_removes_capacity_and_planners_skip() {
        let mut p = pool(4);
        let total = p.free_cores();
        assert!(p.node_down(0));
        assert!(!p.node_down(0), "already down");
        assert!(p.is_node_down(0));
        assert_eq!(p.down_nodes(), 1);
        assert_eq!(p.free_cores(), total - 56);
        let pl = p.try_alloc(&ResourceRequest::single(1, 0)).unwrap();
        assert_eq!(pl.ranks[0].node, NodeId(1), "pack skips the down node");
        assert_eq!(p.plan_indexed(&pl_req()), p.plan_linear(&pl_req()));
        assert!(p.node_up(0));
        assert!(!p.node_up(0), "already up");
        assert_eq!(p.free_cores(), total - 1);
        let pl2 = p.try_alloc(&ResourceRequest::single(1, 0)).unwrap();
        assert_eq!(pl2.ranks[0].node, NodeId(0), "restored node packs first");
    }

    fn pl_req() -> ResourceRequest {
        ResourceRequest::single(1, 0)
    }

    #[test]
    fn free_on_down_node_parks_until_node_up() {
        let mut p = pool(2);
        let total = p.free_cores();
        let held = p.try_alloc(&ResourceRequest::single(8, 2)).unwrap();
        assert_eq!(held.ranks[0].node, NodeId(0));
        p.node_down(0);
        assert_eq!(p.free_cores(), 56, "only node 1 contributes");
        // Freeing the dead node's placement parks it: totals unchanged.
        p.free(&held);
        assert_eq!(p.free_cores(), 56);
        assert_eq!(p.free_gpus(), 8);
        // node_up returns the parked resources with the rest of the node.
        p.node_up(0);
        assert_eq!(p.free_cores(), total);
        assert_eq!(p.free_gpus(), 16);
        let wide = p.try_alloc(&ResourceRequest::mpi(2, 56, 8)).unwrap();
        assert_eq!(wide.node_count(), 2, "whole machine placeable again");
    }

    #[test]
    fn indexed_matches_linear_under_down_up_churn() {
        let mut state = 0xC0FF_EE00_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(17);
        let mut held: Vec<Placement> = Vec::new();
        for step in 0..3000 {
            let r = rng();
            match r % 11 {
                0 => {
                    p.node_down((r as usize / 11) % 17);
                }
                1 => {
                    p.node_up((r as usize / 11) % 17);
                }
                2..=7 => {
                    let req = match r % 3 {
                        0 => ResourceRequest::single(1, 0),
                        1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                        _ => ResourceRequest::mpi((r as u32 % 6) + 1, 8, 1),
                    };
                    if p.index_stale {
                        p.index.rebuild(&p.nodes);
                        p.index_stale = false;
                    }
                    assert_eq!(
                        p.plan_indexed(&req),
                        p.plan_linear(&req),
                        "divergence at step {step} for {req:?}"
                    );
                    if let Some(pl) = p.try_alloc(&req) {
                        for rk in &pl.ranks {
                            assert!(
                                !p.is_node_down(rk.node_idx as usize),
                                "placed on a down node at step {step}"
                            );
                        }
                        held.push(pl);
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let pl = held.swap_remove((r as usize / 11) % held.len());
                        p.free(&pl);
                    }
                }
            }
        }
        // Restore all nodes, drain all holds: the pool must be whole again.
        for pl in held.drain(..) {
            p.free(&pl);
        }
        for i in 0..17 {
            p.node_up(i);
        }
        assert_eq!(p.free_cores(), p.total_cores());
        assert_eq!(p.free_gpus(), p.total_gpus());
    }

    #[test]
    fn seven_k_core_task_geometry() {
        // The IMPECCABLE upper bound: 7,168 cores = 128 Frontier nodes.
        let mut p = pool(128);
        let req = ResourceRequest::mpi(128, 56, 0);
        assert_eq!(req.total_cores(), 7_168);
        let pl = p.try_alloc(&req).unwrap();
        assert_eq!(pl.node_count(), 128);
        assert_eq!(p.free_cores(), 0);
    }
}
