//! Single-threaded replay: the workload's own frames through each
//! layer's public functions, in pipeline order.
//!
//! Two passes run over every batch of `BATCH` freshly copied packets:
//!
//! * The **layer table** times each layer function over the whole batch
//!   (one span per layer per batch, parent = the batch), on every
//!   packet, whether or not the pipeline's fast path would skip it.
//!   Spans cover a batch rather than a call because the clock read
//!   (~20 ns) is as expensive as the cheapest layers.
//! * The **ledger** replays the exact worker-side path the executor
//!   takes — injector ring handoff, each stage's flow-cache consult and
//!   slow path, steering choice, flow-table routing, delivery, slab
//!   recycle — and times it per batch. Its per-packet total is what
//!   `ledger.coverage` compares with the pipeline's worker time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use falcon_conntrack::ConnShard;
use falcon_dataplane::executor::{VETH_IF, VXLAN_IF};
use falcon_dataplane::steer::release;
use falcon_dataplane::{
    ring, rss_hash_for_flow, DepthGauge, FlowTable, InflightGuard, Policy, PolicyKind,
    PNIC_SPLIT_IF,
};
use falcon_packet::checksum::internet_checksum;
use falcon_packet::{MacAddr, PktDesc, SlabConfig, SlabPool, SlabSeg, WireBuf};
use falcon_wire::{
    bridge_lookup, conn_observe, deliver_verify, flow_cache_key, full_verdict, gro_coalesce,
    payload_digest, pnic_verify, vxlan_decap, Delivery, Fdb, FlowCache, FrameFactory, Lookup,
    SharedFdb, WireError,
};

use crate::alloc;
use crate::gen::Inputs;
use crate::workload::{Spec, FLOW_CACHE_ENTRIES};

/// Packets per replayed batch (the executor's NAPI budget order).
const BATCH: usize = 32;
/// Batches replayed at least, whatever the budget.
const MIN_BATCHES: u64 = 20;

/// Layers of the table pass, in pipeline order.
#[derive(Clone, Copy)]
enum Layer {
    LeaseShell,
    Acquire,
    PnicVerify,
    Checksum,
    Gro,
    CacheKey,
    Lookup,
    FullVerdict,
    Insert,
    Decap,
    Bridge,
    ConnObserve,
    ConntrackRecord,
    DeliverVerify,
    Mix64,
    Route,
    Choose,
    Spsc,
    Recycle,
}

const LAYERS: usize = Layer::Recycle as usize + 1;

/// The replay's results.
#[derive(Debug)]
pub struct Replay {
    /// `(metric name, ns per call)` of every layer in the table pass.
    pub layer_ns: Vec<(&'static str, f64)>,
    /// Worker-side ledger time per packet.
    pub ledger_ns_per_pkt: f64,
    /// Heap allocations per packet on the worker-side path.
    pub allocs_per_pkt: f64,
}

/// Worker-side state the ledger pass threads through every packet,
/// one of each like a single worker has.
struct Worker {
    fdb: Arc<SharedFdb>,
    host: MacAddr,
    vni: u32,
    cache: FlowCache,
    conntrack: ConnShard,
}

pub fn run(spec: &Spec, inputs: &Inputs, budget: Duration) -> Replay {
    let factory = FrameFactory::default();
    let fdb = Arc::new(SharedFdb::new(Fdb::for_flows(&factory, spec.flows)));
    let host = FrameFactory::host_mac();
    let mut pool = SlabPool::new(SlabConfig::default());
    let mut worker = Worker {
        fdb: Arc::clone(&fdb),
        host,
        vni: factory.vni,
        cache: FlowCache::new(FLOW_CACHE_ENTRIES),
        conntrack: ConnShard::new(),
    };
    let mut scratch_cache = FlowCache::new(FLOW_CACHE_ENTRIES);
    let mut scratch_conntrack = ConnShard::new();
    let n = spec.workers;
    let flows = FlowTable::new(n * 4);
    let policy = Policy::with_two_choice(PolicyKind::Falcon, n, true);
    let depths = DepthGauge::new(n, 64);
    let (mut tx, mut rx) = ring::<PktDesc>(512);
    let mut staged: Vec<PktDesc> = Vec::with_capacity(BATCH);
    let mut popped: Vec<PktDesc> = Vec::with_capacity(BATCH);
    let mut bufs: Vec<Box<WireBuf>> = Vec::with_capacity(BATCH);
    let mut slots: Vec<SlabSeg> = Vec::with_capacity(BATCH * 4);
    let mut keys: Vec<Option<u64>> = Vec::with_capacity(BATCH);

    let mut seqs = vec![0u64; spec.flows as usize];
    let mut span_ns = [0u64; LAYERS];
    let mut calls = [0u64; LAYERS];
    let mut ledger_ns = 0u64;
    let mut allocs = 0u64;
    let mut next_pkt = 0u64;
    let start = Instant::now();
    let mut batches = 0u64;
    alloc::enable(true);
    while batches < MIN_BATCHES || start.elapsed() < budget {
        batches += 1;
        let batch: Vec<(u64, u64)> = (0..BATCH as u64)
            .map(|k| {
                let flow = inputs.flow_at(next_pkt + k);
                let seq = seqs[flow as usize];
                seqs[flow as usize] += 1;
                (flow, seq)
            })
            .collect();
        next_pkt += BATCH as u64;

        // ---- Layer table ----
        let mut timed = |layer: Layer, n: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            span_ns[layer as usize] += t.elapsed().as_nanos() as u64;
            calls[layer as usize] += n as u64;
        };
        timed(Layer::LeaseShell, BATCH, &mut || {
            bufs.extend((0..BATCH).map(|_| pool.lease_shell()));
        });
        let segs: usize = batch.iter().map(|&(f, s)| inputs.frame(f, s).len()).sum();
        timed(Layer::Acquire, segs, &mut || {
            for &(f, s) in &batch {
                for seg in inputs.frame(f, s) {
                    slots.push(pool.acquire(seg.len()));
                }
            }
        });
        fill(&batch, inputs, &mut bufs, &mut slots);
        timed(Layer::PnicVerify, BATCH, &mut || {
            for b in &bufs {
                pnic_verify(b, host).expect("clean frame");
            }
        });
        timed(Layer::Checksum, BATCH, &mut || {
            for b in &bufs {
                for seg in &b.segs {
                    std::hint::black_box(internet_checksum(seg));
                }
            }
        });
        timed(Layer::Gro, BATCH, &mut || {
            for b in bufs.iter_mut() {
                gro_coalesce(b).expect("clean frame");
            }
        });
        timed(Layer::CacheKey, BATCH, &mut || {
            keys.extend(bufs.iter().map(|b| flow_cache_key(&b.segs[0])));
        });
        let epoch = fdb.epoch();
        timed(Layer::Lookup, BATCH, &mut || {
            for k in keys.iter().flatten() {
                std::hint::black_box(matches!(scratch_cache.lookup(*k, epoch), Lookup::Fresh(_)));
            }
        });
        let mut verdicts = Vec::with_capacity(BATCH);
        timed(Layer::FullVerdict, BATCH, &mut || {
            for b in &bufs {
                verdicts.push(full_verdict(
                    &b.segs[0],
                    host,
                    factory.vni,
                    &fdb.read(),
                    epoch,
                ));
            }
        });
        timed(Layer::Insert, BATCH, &mut || {
            for (k, v) in keys.iter().zip(&verdicts) {
                if let (Some(k), Some(v)) = (k, v) {
                    scratch_cache.insert(*k, *v);
                }
            }
        });
        timed(Layer::Decap, BATCH, &mut || {
            for b in bufs.iter_mut() {
                vxlan_decap(b, factory.vni).expect("clean frame");
            }
        });
        timed(Layer::Bridge, BATCH, &mut || {
            for b in &bufs {
                bridge_lookup(b, &fdb.read()).expect("clean frame");
            }
        });
        let mut observations = Vec::with_capacity(BATCH);
        timed(Layer::ConnObserve, BATCH, &mut || {
            for b in &bufs {
                observations.push(conn_observe(b.inner_frame().expect("decapped")));
            }
        });
        timed(Layer::ConntrackRecord, BATCH, &mut || {
            for (obs, &(_, seq)) in observations.iter().flatten().zip(&batch) {
                scratch_conntrack.record(obs.key, obs.flags, obs.payload_len, seq);
            }
        });
        timed(Layer::DeliverVerify, BATCH, &mut || {
            for b in &bufs {
                deliver_verify(b).expect("clean frame");
            }
        });
        timed(Layer::Mix64, BATCH, &mut || {
            for b in &bufs {
                let inner = b.inner_frame().expect("decapped");
                std::hint::black_box(payload_digest(&inner[inner.len() - inputs.payload..]));
            }
        });
        timed(Layer::Route, BATCH, &mut || {
            for &(f, _) in &batch {
                let r = flows.route(f, VXLAN_IF, (f as usize) % n);
                release(&r.guard, 0);
            }
        });
        timed(Layer::Choose, BATCH, &mut || {
            for &(f, _) in &batch {
                std::hint::black_box(policy.choose(rss_hash_for_flow(f), VXLAN_IF, &depths));
            }
        });
        staged.extend(bufs.drain(..).zip(&batch).map(|(b, &(f, s))| {
            PktDesc::new(0, f, s, rss_hash_for_flow(f), inputs.payload as u32).with_wire(b)
        }));
        timed(Layer::Spsc, BATCH, &mut || {
            tx.push_batch(&mut staged);
            rx.pop_batch(&mut popped, BATCH);
        });
        bufs.extend(popped.drain(..).map(|d| d.wire.expect("wire")));
        timed(Layer::Recycle, BATCH, &mut || {
            for b in bufs.drain(..) {
                falcon_packet::slab::recycle(b);
            }
        });
        keys.clear();

        // ---- Ledger: the executor's worker-side path ----
        bufs.extend((0..BATCH).map(|_| pool.lease_shell()));
        for &(f, s) in &batch {
            for seg in inputs.frame(f, s) {
                slots.push(pool.acquire(seg.len()));
            }
        }
        fill(&batch, inputs, &mut bufs, &mut slots);
        staged.extend(bufs.drain(..).zip(&batch).map(|(b, &(f, s))| {
            PktDesc::new(0, f, s, rss_hash_for_flow(f), inputs.payload as u32).with_wire(b)
        }));
        let a0 = alloc::count();
        let t0 = Instant::now();
        tx.push_batch(&mut staged);
        rx.pop_batch(&mut popped, BATCH);
        for desc in popped.drain(..) {
            run_packet(&mut worker, spec, &policy, &flows, &depths, desc);
        }
        ledger_ns += t0.elapsed().as_nanos() as u64;
        allocs += alloc::count() - a0;
    }
    alloc::enable(false);
    let packets = batches * BATCH as u64;
    let per_call = |l: Layer| span_ns[l as usize] as f64 / calls[l as usize].max(1) as f64;
    let per_pkt = |l: Layer| span_ns[l as usize] as f64 / packets as f64;
    let gro = if spec.segs_per_pkt() > 1 {
        per_call(Layer::Gro)
    } else {
        0.0
    };
    Replay {
        layer_ns: vec![
            ("packet.slab.lease_shell_ns", per_call(Layer::LeaseShell)),
            ("packet.slab.acquire_ns", per_call(Layer::Acquire)),
            ("wire.pnic_verify_ns", per_call(Layer::PnicVerify)),
            ("packet.checksum_ns_per_pkt", per_pkt(Layer::Checksum)),
            ("wire.gro_coalesce_ns", gro),
            ("wire.flow_cache_key_ns", per_call(Layer::CacheKey)),
            ("wire.flow_cache.lookup_ns", per_call(Layer::Lookup)),
            ("wire.full_verdict_ns", per_call(Layer::FullVerdict)),
            ("wire.flow_cache.insert_ns", per_call(Layer::Insert)),
            ("wire.vxlan_decap_ns", per_call(Layer::Decap)),
            ("wire.bridge_lookup_ns", per_call(Layer::Bridge)),
            ("wire.conn_observe_ns", per_call(Layer::ConnObserve)),
            ("conntrack.observe_ns", per_call(Layer::ConntrackRecord)),
            ("wire.deliver_verify_ns", per_call(Layer::DeliverVerify)),
            ("packet.mix64_ns_per_pkt", per_pkt(Layer::Mix64)),
            ("dataplane.route_ns", per_call(Layer::Route)),
            ("dataplane.choose_ns", per_call(Layer::Choose)),
            ("dataplane.spsc_ns", per_call(Layer::Spsc)),
            ("packet.slab.recycle_ns", per_call(Layer::Recycle)),
        ],
        ledger_ns_per_pkt: ledger_ns as f64 / packets as f64,
        allocs_per_pkt: allocs as f64 / packets as f64,
    }
}

/// Copies each packet's template segments into its leased slots and
/// attaches them to the packet's shell.
fn fill(
    batch: &[(u64, u64)],
    inputs: &Inputs,
    bufs: &mut [Box<WireBuf>],
    slots: &mut Vec<SlabSeg>,
) {
    let mut slots = slots.drain(..);
    for (buf, &(f, s)) in bufs.iter_mut().zip(batch) {
        for seg in inputs.frame(f, s) {
            let mut slot = slots.next().expect("one slot per segment");
            let bytes = slot.vec_mut();
            bytes.clear();
            bytes.extend_from_slice(seg);
            buf.segs.push(slot);
        }
    }
}

/// The steering device for the hop into `stage`, as the executor
/// routes it (`None` = a backlog-local hop with no steering point).
fn steer_ifindex(split: bool, stage: usize) -> Option<u32> {
    match (split, stage) {
        (true, 1) => Some(PNIC_SPLIT_IF),
        (true, 3) | (false, 2) => Some(VXLAN_IF),
        (true, 4) | (false, 3) => Some(VETH_IF),
        _ => None,
    }
}

/// One packet through every stage on one worker: the executor's stage
/// slices, steering and hand-over-hand guard release, then recycle.
fn run_packet(
    w: &mut Worker,
    spec: &Spec,
    policy: &Policy,
    flows: &FlowTable,
    depths: &DepthGauge,
    mut desc: PktDesc,
) {
    let mut buf = desc.wire.take().expect("wire");
    let mut key = None;
    let mut guard: Option<Arc<InflightGuard>> = None;
    let mut prev: Option<Arc<InflightGuard>> = None;
    for stage in 0..spec.stages() {
        let op = if spec.split_gro { stage } else { stage + 1 };
        let delivery = stage_work(w, spec.split_gro, op, &mut buf, &mut key, desc.seq);
        std::hint::black_box(delivery.expect("clean frame"));
        if let Some(p) = prev.take() {
            release(&p, 0);
        }
        if let Some(ifindex) = steer_ifindex(spec.split_gro, stage + 1) {
            let choice = policy.choose(desc.rx_hash, ifindex, depths);
            let route = flows.route(desc.flow, ifindex, choice.worker);
            prev = guard.replace(route.guard);
        }
    }
    for g in [guard, prev].into_iter().flatten() {
        release(&g, 0);
    }
    falcon_packet::slab::recycle(buf);
}

/// The executor's per-stage wire work with the flow cache consulted
/// first (see `wire_stage_work` in the dataplane executor): a fresh hit
/// skips the pNIC verify, applies cached decap offsets, or stands in
/// for the FDB lookups; a miss runs the slow path and fills the cache.
fn stage_work(
    w: &mut Worker,
    split: bool,
    op: usize,
    buf: &mut WireBuf,
    key: &mut Option<u64>,
    seq: u64,
) -> Result<Option<Delivery>, WireError> {
    let mut consulted_miss = false;
    if op < 4 && buf.segs.len() == 1 {
        if key.is_none() {
            *key = flow_cache_key(&buf.segs[0]);
        }
        if let Some(k) = *key {
            match w.cache.lookup(k, w.fdb.epoch()) {
                Lookup::Fresh(v) => {
                    match op {
                        2 => buf.inner = Some(v.inner_start as usize..v.inner_end as usize),
                        3 => observe(&mut w.conntrack, buf, seq),
                        _ => {}
                    }
                    return Ok(None);
                }
                Lookup::Stale | Lookup::Miss => consulted_miss = true,
            }
        }
    }
    let result = match op {
        0 => pnic_verify(buf, w.host).map(|()| None),
        1 => {
            if !split {
                pnic_verify(buf, w.host)?;
            }
            gro_coalesce(buf).map(|()| None)
        }
        2 => vxlan_decap(buf, w.vni).map(|()| None),
        3 => {
            let r = bridge_lookup(buf, &w.fdb.read());
            if r.is_ok() {
                observe(&mut w.conntrack, buf, seq);
            }
            r.map(|_| None)
        }
        _ => deliver_verify(buf).map(Some),
    };
    if result.is_ok() && consulted_miss {
        if let Some(k) = *key {
            let fdb = w.fdb.read();
            let epoch = w.fdb.epoch();
            if let Some(v) = full_verdict(&buf.segs[0], w.host, w.vni, &fdb, epoch) {
                w.cache.insert(k, v);
            }
        }
    }
    result
}

fn observe(conntrack: &mut ConnShard, buf: &WireBuf, seq: u64) {
    if let Some(obs) = buf.inner_frame().and_then(conn_observe) {
        conntrack.record(obs.key, obs.flags, obs.payload_len, seq);
    }
}
