//! Steering policies for the threaded executor, and the global
//! flow-steering table that makes them order-safe.
//!
//! The policies are the paper's two contenders, turned into real
//! scheduling decisions:
//!
//! * [`Policy::Vanilla`] — every stage of a flow runs on the flow-hash
//!   core, fully serialized: the overlay status quo the paper's §3
//!   measures.
//! * [`Policy::Falcon`] — per-(flow, device) placement via the same
//!   `get_falcon_cpu` hash the simulation uses
//!   ([`falcon::balance::falcon_choices_by`]), with the two-choice load
//!   balancer reading *live* per-worker queue depths instead of a
//!   smoothed load sample.
//!
//! Because the balancer reads volatile depths, its preferred target for
//! a (flow, device) pair can change between packets — exactly the
//! hazard "Why Does Flow Director Cause Packet Reordering?" describes.
//! The [`InflightGuard`] closes it the way the kernel's `rps_dev_flow`
//! qtail check does: a (flow, device) pair may only migrate to a new
//! worker when it has zero packets in flight at that stage. The guard
//! packs the pair's sticky worker and in-flight count into one atomic
//! word, so routing is a single CAS. A flow's guards live in one
//! `FlowRecord`; the [`FlowTable`] maps flow ids to records, and the
//! executor looks a record up once per packet, at injection, after
//! which the packet points at its flow's guards directly.
//! Unlike the kernel — where one backlog per CPU makes "drained" safe
//! on its own — the executor's per-(src, dst) ring mesh means packets
//! arriving from different upstream workers travel on different FIFOs,
//! so the executor holds each registration until the packet has
//! executed the *next* stage (hand-over-hand), not merely the routed
//! one. See `executor::DpPkt::prev_guard` for the full argument.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use falcon::balance::falcon_choices_by;
use falcon::FalconConfig;
use falcon_cpusim::CpuSet;
use serde::{Deserialize, Serialize};

/// Which steering policy a dataplane run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// All stages on the flow-hash core (serialized RSS behavior).
    Vanilla,
    /// Device-aware hashing + two-choice balancing (the paper).
    Falcon,
    /// State-Compute Replication: spread every flow's packets across
    /// workers round-robin with *no* per-(flow, device) serialization;
    /// each worker replicates the stateful bridge computation in its
    /// own conntrack shard, reconciled after the run by a delta-log
    /// merge. Trades per-flow delivery order (relaxed to the SCR
    /// duplicate-freedom contract) for immunity to the single-heavy-flow
    /// pin that serializing policies suffer.
    Replicate,
}

impl PolicyKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Vanilla => "vanilla",
            PolicyKind::Falcon => "falcon",
            PolicyKind::Replicate => "replicate",
        }
    }

    /// Parses a report label back into a kind (CLI `--policy`).
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        match label {
            "vanilla" => Some(PolicyKind::Vanilla),
            "falcon" => Some(PolicyKind::Falcon),
            "replicate" => Some(PolicyKind::Replicate),
            _ => None,
        }
    }
}

/// Aligns each worker's depth counter to its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicUsize);

/// Live per-worker inbound queue depths — the dataplane's substitute
/// for the simulation's smoothed [`LoadTracker`](falcon_cpusim::LoadTracker).
///
/// Producers increment the target's gauge *before* pushing and undo the
/// increment if the push fails; consumers decrement after pop. The
/// order matters: incrementing after a successful push races the
/// consumer's decrement (pop can land between push and increment) and
/// underflows the counter to `usize::MAX`, which would read as load 1.0
/// and trigger spurious two-choice rehashes until the increment lands.
/// `load()` normalizes depth against
/// `busy_depth` (≈ one NAPI budget): a worker with a full batch already
/// queued reads as load 1.0, which is when the two-choice balancer
/// starts looking elsewhere.
///
/// **Staleness bound under batching.** The batched executor touches
/// each counter once per (sweep, ring) instead of once per packet:
/// consumers `sub` a whole pop batch up front, producers `add` a whole
/// staged batch at flush. The depth another worker reads can therefore
/// be off by at most one NAPI budget in either direction: under-read
/// by an upstream worker's unflushed outbound staging buffer
/// (≤ `napi_budget`, flushed at the end of processing every inbound
/// batch), or by the consumer's up-front `sub` of a batch it is still
/// working through (which moves those packets from "queued" to
/// "in service" a batch early). The local worker's own staged packets
/// are folded back in via [`load_plus`](Self::load_plus), so a
/// steering decision is never stale with respect to the decisions the
/// same worker just made — the feedback loop that matters for
/// two-choice stability. Cross-worker error stays bounded by one NAPI
/// budget and self-corrects every sweep.
///
/// That bound is not just documentation: every batched update reports
/// its size through [`note_staleness`](Self::note_staleness), and the
/// per-worker maximum is exported as the sampled `depth_staleness`
/// metric — so telemetry (and the conformance tests) can verify the
/// gauge never went staler than one NAPI budget.
#[derive(Debug)]
pub struct DepthGauge {
    depths: Vec<PaddedCounter>,
    /// Largest single batched adjustment observed per worker — the
    /// realized staleness bound of that worker's depth signal.
    staleness: Vec<PaddedCounter>,
    busy_depth: usize,
}

impl DepthGauge {
    /// Creates gauges for `workers` workers.
    pub fn new(workers: usize, busy_depth: usize) -> Self {
        DepthGauge {
            depths: (0..workers).map(|_| PaddedCounter::default()).collect(),
            staleness: (0..workers).map(|_| PaddedCounter::default()).collect(),
            busy_depth: busy_depth.max(1),
        }
    }

    /// Records one packet queued toward `worker`.
    #[inline]
    pub fn inc(&self, worker: usize) {
        self.depths[worker].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packet dequeued by `worker`.
    #[inline]
    pub fn dec(&self, worker: usize) {
        self.depths[worker].0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records `n` packets queued toward `worker` in one RMW — the
    /// batched flush path's single shared-cache-line touch per
    /// (sweep, destination) instead of one per packet.
    #[inline]
    pub fn add(&self, worker: usize, n: usize) {
        if n > 0 {
            self.depths[worker].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` packets dequeued by `worker` in one RMW (the batched
    /// consumer-side companion to [`add`](Self::add)).
    #[inline]
    pub fn sub(&self, worker: usize, n: usize) {
        if n > 0 {
            self.depths[worker].0.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Current queued-packet count for `worker`.
    #[inline]
    pub fn depth(&self, worker: usize) -> usize {
        self.depths[worker].0.load(Ordering::Relaxed)
    }

    /// Depth normalized to `0..=1` against the busy threshold.
    #[inline]
    pub fn load(&self, worker: usize) -> f64 {
        (self.depth(worker) as f64 / self.busy_depth as f64).min(1.0)
    }

    /// Like [`load`](Self::load), with `extra` locally-staged packets
    /// folded in. The batched executor publishes its outbound packets
    /// to the gauge once per flush, not per packet; folding the
    /// not-yet-flushed staging count back in keeps *this* worker's
    /// steering decisions exactly as fresh as the per-packet gauge gave
    /// them. (Other workers' staged packets stay invisible until their
    /// flush — see the staleness-bound note on [`DepthGauge`].)
    #[inline]
    pub fn load_plus(&self, worker: usize, extra: usize) -> f64 {
        ((self.depth(worker) + extra) as f64 / self.busy_depth as f64).min(1.0)
    }

    /// Records that `worker`'s depth signal was stale by `n` packets
    /// for one batched update: a consumer's up-front `sub` of a batch
    /// it is still serving, or a producer's staged-but-unflushed
    /// outbound buffer published in one `add`. Keeps the per-worker
    /// maximum; the executor calls this at every batched gauge touch,
    /// so the exported metric is the *realized* staleness bound.
    #[inline]
    pub fn note_staleness(&self, worker: usize, n: usize) {
        if n > 0 {
            self.staleness[worker].0.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Largest batched-update staleness observed for `worker` so far.
    /// The documented bound is one NAPI budget (`busy_depth`).
    #[inline]
    pub fn staleness(&self, worker: usize) -> usize {
        self.staleness[worker].0.load(Ordering::Relaxed)
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.depths.len()
    }
}

/// A steering decision: the preferred worker and whether the two-choice
/// rehash was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// First-choice worker from the device-aware hash.
    pub first: usize,
    /// Preferred worker for the stage (== `first` unless rehashed).
    pub worker: usize,
    /// Whether the first choice was over threshold and the second
    /// random choice was used.
    pub second: bool,
}

/// A steering policy instance, shared read-only across workers.
#[derive(Debug)]
pub enum Policy {
    /// Serialized: flow-hash placement for every stage.
    Vanilla {
        /// The worker set hashed over.
        workers: CpuSet,
    },
    /// The paper's Algorithm 1 over live queue depths.
    Falcon {
        /// Falcon knobs; `falcon_cpus` is the worker set.
        config: FalconConfig,
    },
    /// State-Compute Replication: packet-level round-robin at injection,
    /// run-to-completion on the receiving worker, per-worker state
    /// replicas merged after the run. No guards, no migration.
    Replicate {
        /// The worker set packets are spread over.
        workers: CpuSet,
    },
}

impl Policy {
    /// Builds the policy for `kind` over workers `0..n`.
    pub fn new(kind: PolicyKind, n_workers: usize) -> Self {
        Policy::with_two_choice(kind, n_workers, true)
    }

    /// Like [`Policy::new`], with the Falcon policy's depth-triggered
    /// two-choice rehash switched on or off (off = always the
    /// (flow, device) hash's first choice, load ignored). Vanilla
    /// hashes unconditionally and ignores the flag. A single worker
    /// never rehashes: the second choice could only name the same
    /// worker, so reading its load would buy nothing.
    pub fn with_two_choice(kind: PolicyKind, n_workers: usize, two_choice: bool) -> Self {
        match kind {
            PolicyKind::Vanilla => Policy::Vanilla {
                workers: CpuSet::first_n(n_workers),
            },
            PolicyKind::Falcon => Policy::Falcon {
                config: FalconConfig::new(CpuSet::first_n(n_workers))
                    .with_always_on(true)
                    .with_two_choice(two_choice && n_workers > 1),
            },
            PolicyKind::Replicate => Policy::Replicate {
                workers: CpuSet::first_n(n_workers),
            },
        }
    }

    /// Builds a Falcon policy with explicit knobs (threshold, ablations).
    pub fn falcon(config: FalconConfig) -> Self {
        Policy::Falcon { config }
    }

    /// The policy's report label.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::Vanilla { .. } => PolicyKind::Vanilla,
            Policy::Falcon { .. } => PolicyKind::Falcon,
            Policy::Replicate { .. } => PolicyKind::Replicate,
        }
    }

    /// The core a flow's packets arrive on (RSS): both policies pin
    /// stage A to the flow-hash worker, like the NIC's indirection
    /// table does.
    pub fn rss_worker(&self, rx_hash: u32) -> usize {
        match self {
            Policy::Vanilla { workers } => workers.pick_by_hash(rx_hash),
            Policy::Falcon { config } => config.falcon_cpus.pick_by_hash(rx_hash),
            // Replicate doesn't pin flows to an RSS core — the injector
            // round-robins per packet and ignores this — but keep the
            // hash pick as a sensible answer for callers that ask.
            Policy::Replicate { workers } => workers.pick_by_hash(rx_hash),
        }
    }

    /// Picks the worker for the stage behind device `ifindex`.
    pub fn choose(&self, rx_hash: u32, ifindex: u32, depths: &DepthGauge) -> Choice {
        self.choose_by(rx_hash, ifindex, |c| depths.load(c))
    }

    /// Picks the worker for the stage behind device `ifindex`, reading
    /// per-worker load through `load`. The batched executor uses this
    /// to fold its locally-staged (not yet flushed) packets into the
    /// gauge reading — see [`DepthGauge::load_plus`].
    pub fn choose_by(&self, rx_hash: u32, ifindex: u32, load: impl Fn(usize) -> f64) -> Choice {
        match self {
            Policy::Vanilla { workers } => {
                let worker = workers.pick_by_hash(rx_hash);
                Choice {
                    first: worker,
                    worker,
                    second: false,
                }
            }
            Policy::Falcon { config } => {
                let (first, worker, second) = falcon_choices_by(config, rx_hash, ifindex, load);
                Choice {
                    first,
                    worker,
                    second,
                }
            }
            // Under SCR the executor never steers mid-pipeline — the
            // packet runs to completion where it landed. Answer with
            // the hash pick so the Choice contract stays total.
            Policy::Replicate { workers } => {
                let worker = workers.pick_by_hash(rx_hash);
                Choice {
                    first: worker,
                    worker,
                    second: false,
                }
            }
        }
    }
}

/// Worker half of the state word of a pair that has never been routed.
const UNSET: u64 = u32::MAX as u64;
/// The in-flight count: the low half of the state word.
const COUNT_MASK: u64 = u32::MAX as u64;

/// The shared in-flight state of one (flow, device) registration: the
/// sticky worker and the packet count that blocks migration, packed
/// into one word so routing reads and updates both with one CAS, plus a
/// Lamport-clock high-water mark that threads the ordering audit's
/// happens-before chain through migrations.
///
/// The clock is what lets the audit ticket be *per-worker* instead of
/// a run-global RMW (the old design's hottest shared cache line: two
/// `fetch_add`s on one counter per stage execution, from every worker
/// at once). Each worker stamps its order records with a local Lamport
/// counter; packets carry the clock across rings (the ring's
/// release/acquire publishes it); and this field carries it across the
/// one remaining cross-worker edge — a migration, where packet B may
/// execute a checkpoint on a different worker than packet A did,
/// linked only by "A's guard drained before B routed". The releaser
/// folds its clock in *before* the `Release` decrement of the state
/// word; a router whose `AcqRel` CAS observes a count of zero therefore
/// also observes the clock, and hands it to the routed packet. Every
/// happens-before path between two executions at one (flow,
/// checkpoint) — same-thread program order, ring handoff, or guard
/// drain — thus forces strictly increasing ticket values, so sorting
/// the merged logs by (clock, worker) reconstructs the true order
/// without any run-global synchronization.
#[derive(Debug)]
pub struct InflightGuard {
    /// Sticky worker in the high half (`UNSET` until first routed),
    /// packets in flight under this registration in the low half.
    state: AtomicU64,
    /// Lamport-clock high-water mark of completed releases.
    release_lc: AtomicU64,
}

impl Default for InflightGuard {
    fn default() -> Self {
        InflightGuard {
            state: AtomicU64::new(UNSET << 32),
            release_lc: AtomicU64::new(0),
        }
    }
}

/// Where one registration at a guard placed its packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    /// Worker the packet must be enqueued to.
    pub(crate) worker: usize,
    /// Whether this packet moved the pair to a new worker.
    pub(crate) migrated: bool,
    /// Lamport clock observed at routing; the packet must fold this
    /// into its own clock so executions after a migration tick later
    /// than everything the drained guard completed.
    pub(crate) lc: u64,
}

impl InflightGuard {
    /// Current in-flight count (tests and diagnostics).
    pub fn in_flight(&self) -> u32 {
        (self.state.load(Ordering::Acquire) & COUNT_MASK) as u32
    }

    /// Whether any packet has been routed through this pair.
    fn routed(&self) -> bool {
        self.state.load(Ordering::Relaxed) >> 32 != UNSET
    }

    /// Registers one packet at this (flow, device) pair, given the
    /// policy's preferred worker, in one CAS on the state word. A new
    /// pair takes `want`; an established pair keeps its worker until it
    /// has zero packets in flight, then migrates to `want`. Either way
    /// the count goes up by one, and the consumer must [`release`] it.
    #[inline]
    pub(crate) fn route(&self, want: usize) -> Placement {
        debug_assert!((want as u64) < UNSET, "worker id collides with UNSET");
        let want = want as u64;
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let (worker, count) = (cur >> 32, cur & COUNT_MASK);
            let migrated = worker != UNSET && worker != want && count == 0;
            let worker = if worker == UNSET || migrated {
                want
            } else {
                worker
            };
            let next = (worker << 32) | (count + 1);
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    // The successful CAS acquired every release that
                    // preceded it, so if it saw a count of zero this
                    // read is ordered after every drained release's
                    // fold-in, and a migrated packet inherits a clock
                    // later than everything that drained. When the
                    // count was nonzero the pair could not migrate and
                    // same-worker program order carries the
                    // happens-before instead; the clock is then merely
                    // a harmless extra lower bound.
                    let lc = self.release_lc.load(Ordering::Relaxed);
                    return Placement {
                        worker: worker as usize,
                        migrated,
                        lc,
                    };
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One resolved route: where the packet actually goes, and the
/// in-flight guard the consumer must release after the stage runs.
#[derive(Debug)]
pub struct Route {
    /// Worker the packet must be enqueued to.
    pub worker: usize,
    /// In-flight guard for this (flow, device); already incremented.
    pub guard: Arc<InflightGuard>,
    /// Whether this packet moved the pair to a new worker.
    pub migrated: bool,
    /// Lamport clock observed at routing; the packet must fold this
    /// into its own clock so executions after a migration tick later
    /// than everything the drained guard completed.
    pub lc: u64,
}

/// Releases one in-flight registration, recording the releasing
/// packet's Lamport clock. The executor calls this once the packet can
/// no longer be overtaken on its way out of the routed stage: after
/// the *following* stage has executed, or on delivery, or when the
/// packet was dropped. The clock fold-in precedes the `Release`
/// decrement, so any router that sees the count hit zero also sees the
/// clock (see [`InflightGuard`]).
#[inline]
pub fn release(guard: &InflightGuard, lc: u64) {
    guard.release_lc.fetch_max(lc, Ordering::Relaxed);
    guard.state.fetch_sub(1, Ordering::Release);
}

/// Steering devices a `FlowRecord` holds a guard for: ifindex
/// `1..=STEER_DEVICES` (the pNIC, vxlan, veth and split-GRO devices of
/// the executor).
pub(crate) const STEER_DEVICES: usize = 4;

/// One flow's in-flight guards, one per steering device. The executor
/// finds a flow's record once per packet, at injection, and the packet
/// carries it through the pipeline: every later hop routes with one CAS
/// on a guard the packet already points to, with no lookup, lock or
/// reference count. Each guard has its own `Arc` so that
/// [`FlowTable::route`] can hand one out on its own.
#[derive(Debug, Default)]
pub(crate) struct FlowRecord {
    guards: [Arc<InflightGuard>; STEER_DEVICES],
}

impl FlowRecord {
    /// The guard of steering device `ifindex` (`1..=STEER_DEVICES`).
    #[inline]
    pub(crate) fn guard(&self, ifindex: u32) -> &Arc<InflightGuard> {
        &self.guards[ifindex as usize - 1]
    }
}

/// Fibonacci hashing of a flow id: one multiply, with the high half
/// folded into the low so both the table's bucket index (low bits) and
/// its control tag (high bits) vary. Both steps are bijections, so
/// distinct flow ids never share a hash; ids are dense counters, or a
/// 16-bit port on the ingest path, so crafted bucket collisions stay
/// bounded by that range and SipHash's rounds buy nothing here.
#[derive(Debug, Default)]
struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type RecordMap = HashMap<u64, Arc<FlowRecord>, BuildHasherDefault<FlowHasher>>;

/// The global sticky (flow, device) → worker table with in-flight
/// migration protection: flow id → `FlowRecord`. The record holds the
/// per-device guards, and routing is the guard's CAS, so the table is
/// only a lookup. In the executor only the injector looks anything up
/// (once per packet), so the shard locks are uncontended.
#[derive(Debug)]
pub struct FlowTable {
    shards: Vec<Mutex<RecordMap>>,
}

impl FlowTable {
    /// Creates a table with `shards` lock shards (rounded up to a power
    /// of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        FlowTable {
            shards: (0..n).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, flow: u64) -> &Mutex<RecordMap> {
        let mixed = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (mixed >> 48) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// The record of `flow`, created on first sight.
    pub(crate) fn record(&self, flow: u64) -> Arc<FlowRecord> {
        let mut map = self.shard(flow).lock().expect("unpoisoned shard");
        Arc::clone(map.entry(flow).or_default())
    }

    /// Resolves where a (flow, device) packet runs, given the policy's
    /// preferred worker: the flow's record, then the device guard's
    /// routing CAS. The returned route has one in-flight
    /// registration the consumer must [`release`].
    pub fn route(&self, flow: u64, ifindex: u32, want: usize) -> Route {
        let record = self.record(flow);
        let guard = record.guard(ifindex);
        let Placement {
            worker,
            migrated,
            lc,
        } = guard.route(want);
        Route {
            worker,
            guard: Arc::clone(guard),
            migrated,
            lc,
        }
    }

    /// Total (flow, device) pairs routed so far.
    pub fn pairs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = s.lock().expect("unpoisoned shard");
                map.values()
                    .flat_map(|r| &r.guards)
                    .filter(|g| g.routed())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_gauge_staleness_tracks_max_batched_update() {
        let g = DepthGauge::new(2, 64);
        assert_eq!(g.staleness(0), 0);
        g.note_staleness(0, 5);
        g.note_staleness(0, 3);
        assert_eq!(g.staleness(0), 5, "keeps the maximum");
        g.note_staleness(0, 64);
        assert_eq!(g.staleness(0), 64);
        g.note_staleness(1, 0);
        assert_eq!(g.staleness(1), 0, "zero-sized updates don't count");
        assert_eq!(g.staleness(0), 64);
    }

    #[test]
    fn vanilla_serializes_all_stages() {
        let p = Policy::new(PolicyKind::Vanilla, 4);
        let depths = DepthGauge::new(4, 64);
        let h = 0xBEEF_CAFE;
        let a = p.rss_worker(h);
        let b = p.choose(h, 2, &depths);
        let c = p.choose(h, 3, &depths);
        assert_eq!(a, b.worker);
        assert_eq!(b.worker, c.worker, "vanilla never leaves the flow core");
        assert!(!b.second && !c.second);
    }

    #[test]
    fn falcon_spreads_stages_of_one_flow() {
        let p = Policy::new(PolicyKind::Falcon, 8);
        let depths = DepthGauge::new(8, 64);
        let mut spread = 0;
        for f in 0..200u32 {
            let h = 0x9E37_0000u32.wrapping_add(f.wrapping_mul(2_654_435_761));
            let b = p.choose(h, 2, &depths).worker;
            let c = p.choose(h, 3, &depths).worker;
            if b != c {
                spread += 1;
            }
        }
        assert!(spread > 120, "only {spread}/200 flows had distinct stages");
    }

    /// GRO splitting rides on the same mechanism: the split half's
    /// synthetic device id (`executor::PNIC_SPLIT_IF`) must hash a
    /// flow's GRO half away from its alloc half's RSS placement for
    /// most flows, or the fifth stage would just serialize behind the
    /// first.
    #[test]
    fn split_device_places_gro_half_off_the_rss_worker() {
        let p = Policy::new(PolicyKind::Falcon, 8);
        let depths = DepthGauge::new(8, 64);
        let mut apart = 0;
        for f in 0..200u32 {
            let h = 0x9E37_0000u32.wrapping_add(f.wrapping_mul(2_654_435_761));
            let alloc = p.rss_worker(h);
            let gro = p.choose(h, crate::executor::PNIC_SPLIT_IF, &depths).worker;
            if alloc != gro {
                apart += 1;
            }
        }
        assert!(apart > 120, "only {apart}/200 flows split off the RSS core");
    }

    #[test]
    fn falcon_second_choice_reads_live_depths() {
        let p = Policy::new(PolicyKind::Falcon, 4);
        let depths = DepthGauge::new(4, 8);
        // Find a (hash, dev) whose first choice is worker 2.
        let (h, dev) = (0..10_000u32)
            .flat_map(|h| [(h, 2u32), (h, 3u32)])
            .find(|&(h, d)| p.choose(h, d, &depths).worker == 2)
            .expect("some input maps to worker 2");
        // Saturate worker 2's queue: the rehash engages.
        for _ in 0..8 {
            depths.inc(2);
        }
        let choice = p.choose(h, dev, &depths);
        assert!(choice.second, "depth-saturated first choice must rehash");
        // Draining the queue restores the first choice.
        for _ in 0..8 {
            depths.dec(2);
        }
        let calm = p.choose(h, dev, &depths);
        assert_eq!(calm.worker, 2);
        assert!(!calm.second);
    }

    #[test]
    fn one_worker_falcon_never_reads_load_or_rehashes() {
        let p = Policy::new(PolicyKind::Falcon, 1);
        for h in 0..1_000u32 {
            for dev in [2u32, 3, 4] {
                let choice = p.choose_by(h, dev, |_| panic!("load read with one worker"));
                assert_eq!(choice.worker, 0);
                assert!(!choice.second);
            }
        }
    }

    #[test]
    fn flow_table_blocks_inflight_migration() {
        let t = FlowTable::new(8);
        let r1 = t.route(7, 2, 0);
        assert_eq!(r1.worker, 0);
        assert!(!r1.migrated);
        // One packet in flight: a different preference must not move
        // the pair.
        let r2 = t.route(7, 2, 3);
        assert_eq!(r2.worker, 0, "migration with packets in flight");
        assert!(!r2.migrated);
        // Drain both packets, then the pair may move.
        release(&r1.guard, 10);
        release(&r2.guard, 20);
        let r3 = t.route(7, 2, 3);
        assert_eq!(r3.worker, 3);
        assert!(r3.migrated);
        assert!(
            r3.lc >= 20,
            "a migrated route must inherit the drained releases' clock"
        );
        release(&r3.guard, 30);
        assert_eq!(t.pairs(), 1);
    }

    #[test]
    fn flow_table_pairs_are_independent() {
        let t = FlowTable::new(4);
        let a = t.route(1, 2, 0);
        let b = t.route(1, 3, 1);
        let c = t.route(2, 2, 2);
        assert_eq!((a.worker, b.worker, c.worker), (0, 1, 2));
        assert_eq!(t.pairs(), 3);
    }

    /// Four threads route, hold and release one (flow, device) pair,
    /// each asking for a different worker every time. While a thread
    /// holds its registration, every other held registration must sit
    /// on the same worker: a migration is only legal with nothing in
    /// flight. A migrated route must inherit the clock of every release
    /// that drained before it.
    #[test]
    fn guard_cas_never_migrates_a_held_pair() {
        const THREADS: usize = 4;
        const ROUNDS: u64 = 20_000;
        let table = FlowTable::new(4);
        let holders: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(0)).collect();
        let max_released = AtomicU64::new(0);
        let migrations = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (table, holders) = (&table, &holders);
                let (max_released, migrations) = (&max_released, &migrations);
                s.spawn(move || {
                    let mut lc = 0u64;
                    for i in 0..ROUNDS {
                        let want = (t + i as usize) % THREADS;
                        let r = table.route(7, 3, want);
                        if r.migrated {
                            assert_eq!(r.worker, want);
                            assert!(r.lc >= lc, "migration lost this thread's own release clock");
                            migrations.fetch_add(1, Ordering::Relaxed);
                        }
                        holders[r.worker].fetch_add(1, Ordering::SeqCst);
                        for (w, h) in holders.iter().enumerate() {
                            if w != r.worker {
                                assert_eq!(
                                    h.load(Ordering::SeqCst),
                                    0,
                                    "pair held on worker {w} while routed to {}",
                                    r.worker
                                );
                            }
                        }
                        std::hint::spin_loop();
                        holders[r.worker].fetch_sub(1, Ordering::SeqCst);
                        lc = lc.max(r.lc) + 1;
                        max_released.fetch_max(lc, Ordering::Relaxed);
                        release(&r.guard, lc);
                    }
                });
            }
        });
        let guard = Arc::clone(table.record(7).guard(3));
        assert_eq!(guard.in_flight(), 0, "every registration released");
        assert!(
            migrations.load(Ordering::Relaxed) > 0,
            "the pair never moved"
        );
        assert_eq!(table.pairs(), 1);
        // Drained: the next route for another worker migrates and
        // carries the highest clock any thread released with.
        let current = table.route(7, 3, 0).worker;
        release(&guard, 0);
        let moved = table.route(7, 3, (current + 1) % THREADS);
        assert!(moved.migrated);
        assert_eq!(moved.lc, max_released.load(Ordering::Relaxed));
        release(&moved.guard, 0);
        assert_eq!(guard.in_flight(), 0);
    }

    #[test]
    fn depth_gauge_normalizes() {
        let g = DepthGauge::new(2, 10);
        assert_eq!(g.load(0), 0.0);
        for _ in 0..5 {
            g.inc(0);
        }
        assert!((g.load(0) - 0.5).abs() < 1e-9);
        for _ in 0..20 {
            g.inc(0);
        }
        assert_eq!(g.load(0), 1.0, "saturates at 1.0");
        assert_eq!(g.depth(1), 0);
    }
}
