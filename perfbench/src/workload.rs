//! The four workloads, their packet sources, and one pipeline trial.
//!
//! A trial is one `run_scenario_from` call with a source this crate
//! owns: a fixed number of messages copied from the seeded templates
//! into leased slab slots (or, for `ingest-loopback`, sent through a
//! loopback UDP socket and drained by the ingest crate's rx loop). A
//! run repeats trials until its time budget is spent and reports
//! one quantile across them.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use falcon_dataplane::{
    core_plan, pin_current_thread, rss_hash_for_flow, run_scenario_from, Injector, PolicyKind,
    RunOutput, Scenario, TelemetrySpec, TrafficShape,
};
use falcon_ingest::{batch_rx, rx_into_pipeline, sock, BatchRx, RecvBatch, RxConfig, RxStats};
use falcon_packet::{PktDesc, SlabConfig, SlabPool};

use crate::gen::Inputs;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "elephant-tcp4k",
    "mice-udp64",
    "falcon-1flow",
    "ingest-loopback",
];

/// Threads that generate or receive traffic: the injector thread.
pub const GENERATOR_THREADS: usize = 1;
/// Flow-cache entries per worker on every workload.
pub const FLOW_CACHE_ENTRIES: usize = 4096;
/// Datagrams per `sendmmsg`/`recvmmsg` batch on the loopback workload.
pub const INGEST_BATCH: usize = 32;
/// How long the loopback pump waits for an outstanding batch before
/// counting its missing datagrams as lost.
const INGEST_LOSS_TIMEOUT: Duration = Duration::from_millis(200);
/// How long a paced source waits for room in its window before it
/// injects anyway (only a wedged pipeline takes this long).
const WINDOW_TIMEOUT: Duration = Duration::from_secs(5);

/// Pacing: `burst` packets every `burst / pps` seconds, with at most
/// `window` packets in the pipeline at once.
///
/// The window is flow control, like a sender's: when the host
/// deschedules a worker for longer than a ring takes to fill at the
/// offered rate (512 slots, 5 ms at 100 kpps), the source holds its
/// next burst instead of overrunning the ring, then catches up on the
/// schedule. Without it, such stalls (host steal, a busy neighbour)
/// tail-drop whole bursts at a rate that follows the host, not the
/// program. A held burst shows as lateness in `source.late_p99_us`.
#[derive(Clone, Copy, Debug)]
pub struct Pacing {
    pub pps: u64,
    pub burst: usize,
    /// Packets in flight at most; below the ring capacity, so no ring
    /// can overflow.
    pub window: u64,
}

impl Pacing {
    pub fn period(self) -> Duration {
        Duration::from_nanos(self.burst as u64 * 1_000_000_000 / self.pps)
    }
}

/// One workload's shape.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub shape: TrafficShape,
    /// Application payload bytes per message.
    pub payload: usize,
    pub flows: u64,
    /// Draw the flow of each packet Zipf(1.0) instead of round-robin.
    pub zipf: bool,
    pub split_gro: bool,
    pub workers: usize,
    /// The core the generator thread pins to.
    pub generator_core: Option<usize>,
    /// `None` = saturating: the source is blocked only by backpressure.
    pub pacing: Option<Pacing>,
    /// Feed the pipeline through a loopback socket and the ingest rx loop.
    pub ingest: bool,
    pub templates_per_flow: usize,
    /// Messages injected per trial.
    pub trial_packets: u64,
}

impl Spec {
    pub fn by_name(name: &str, nproc: usize) -> Option<Spec> {
        let base = Spec {
            name: "",
            shape: TrafficShape::Udp,
            payload: 0,
            flows: 1,
            zipf: false,
            split_gro: false,
            // Generator + workers = cores on the saturating workloads.
            workers: nproc.saturating_sub(1).max(1),
            generator_core: None,
            pacing: None,
            ingest: false,
            templates_per_flow: 64,
            trial_packets: 0,
        };
        let spec = match name {
            "elephant-tcp4k" => Spec {
                name: "elephant-tcp4k",
                shape: TrafficShape::TcpGro { mss: 1448 },
                payload: 4096,
                split_gro: true,
                trial_packets: 20_000,
                ..base
            },
            "mice-udp64" => Spec {
                name: "mice-udp64",
                payload: 64,
                flows: 16_384,
                zipf: true,
                templates_per_flow: 4,
                trial_packets: 100_000,
                ..base
            },
            "falcon-1flow" => Spec {
                name: "falcon-1flow",
                payload: 1400,
                workers: nproc.max(1),
                pacing: Some(Pacing {
                    pps: 100_000,
                    burst: 32,
                    window: 256,
                }),
                trial_packets: 3_200,
                ..base
            },
            "ingest-loopback" => Spec {
                name: "ingest-loopback",
                payload: 256,
                flows: 8,
                ingest: true,
                templates_per_flow: 16,
                trial_packets: 32_000,
                ..base
            },
            _ => return None,
        };
        // Pin the generator to a core the workers leave free or, when
        // they take every core, to the last one: a fixed placement, so
        // trials do not differ by where the scheduler put it.
        let used = core_plan(spec.workers);
        let plan = core_plan(nproc);
        let generator_core = plan
            .iter()
            .copied()
            .find(|c| !used.contains(c))
            .or(plan.last().copied());
        Some(Spec {
            generator_core,
            ..spec
        })
    }

    /// Wire segments per message.
    pub fn segs_per_pkt(&self) -> usize {
        match self.shape {
            TrafficShape::Udp => 1,
            TrafficShape::TcpGro { mss } => self.payload.div_ceil(mss),
        }
    }

    /// Pipeline stages a message executes.
    pub fn stages(&self) -> usize {
        if self.split_gro {
            5
        } else {
            4
        }
    }

    /// The pipeline configuration: Falcon, wire mode, flow cache on,
    /// native cost (`work_scale_milli = 0`: each stage costs exactly
    /// its real byte work, with no modeled spin).
    pub fn scenario(&self, telemetry: bool) -> Scenario {
        Scenario {
            policy: PolicyKind::Falcon,
            workers: self.workers,
            packets: self.trial_packets,
            flows: self.flows,
            payload: self.payload,
            shape: self.shape,
            split_gro: self.split_gro,
            work_scale_milli: 0,
            wire: true,
            flow_cache: true,
            flow_cache_entries: FLOW_CACHE_ENTRIES,
            telemetry: telemetry.then(|| TelemetrySpec {
                interval_ms: 50,
                ..TelemetrySpec::default()
            }),
            ..Scenario::default()
        }
    }

    /// Slab sizing that covers every segment the rings and in-flight
    /// batches can hold at once, so steady state never falls back to
    /// the heap (the same bound the executor's own source uses).
    fn slab_config(&self) -> SlabConfig {
        let s = self.scenario(false);
        let n = self.workers;
        let inflight = (n + 1) * n * s.ring_capacity + n * (n + 1) * s.napi_budget + 64;
        let slots = (self.trial_packets as usize).min(inflight) * self.segs_per_pkt() + 64;
        SlabConfig {
            mtu_slots: slots.clamp(SlabConfig::default().mtu_slots, 65_536),
            ..SlabConfig::default()
        }
    }
}

/// What the loopback pump and rx loop saw.
#[derive(Debug)]
pub struct IngestReport {
    pub rx: RxStats,
    pub send_ns: u64,
    pub sends: u64,
    pub recv_ns: u64,
    pub recvs: u64,
    /// Datagrams sent but never received (counted as loss).
    pub lost: u64,
}

/// What a packet source measured about itself.
#[derive(Debug, Default)]
pub struct SourceReport {
    pub first_inject: Option<Instant>,
    /// Messages sent per flow: delivered seqs must fall below these.
    pub sent_per_flow: Vec<u64>,
    /// Template-copy time (slot leases + byte copy), timed runs only.
    pub copy_ns: u64,
    /// Time inside `Injector::inject`, timed runs only.
    pub inject_ns: u64,
    pub timed: u64,
    /// Paced runs: how late each burst started, ns.
    pub late_ns: Vec<u64>,
    pub ingest: Option<IngestReport>,
}

/// One pipeline run and what its source saw.
pub struct Trial {
    pub out: RunOutput,
    pub source: SourceReport,
    /// Slab minting plus the time from the pipeline call to the first
    /// inject: thread spawn, ring mesh, FDB programming.
    pub setup_ns: u64,
}

/// Runs one trial. `telemetry` turns the in-pipeline telemetry on;
/// `timed` makes the source time each template copy and inject.
pub fn run_trial(spec: &Spec, inputs: &Arc<Inputs>, telemetry: bool, timed: bool) -> Trial {
    if spec.ingest {
        return ingest_trial(spec, inputs, telemetry);
    }
    let scenario = spec.scenario(telemetry);
    let mint = Instant::now();
    let pool = SlabPool::new(spec.slab_config());
    let mint_ns = mint.elapsed().as_nanos() as u64;
    let source = synthetic_source(spec, Arc::clone(inputs), pool, timed);
    let call = Instant::now();
    let (out, source) = run_scenario_from(&scenario, source);
    let setup_ns = mint_ns + since(call, source.first_inject);
    Trial {
        out,
        source,
        setup_ns,
    }
}

fn since(start: Instant, end: Option<Instant>) -> u64 {
    end.map_or(0, |e| e.saturating_duration_since(start).as_nanos() as u64)
}

/// The template-copying source: per message, lease a shell and one
/// slot per segment, copy the template bytes in, inject.
fn synthetic_source(
    spec: &Spec,
    inputs: Arc<Inputs>,
    mut pool: SlabPool,
    timed: bool,
) -> impl FnOnce(&mut Injector) -> SourceReport + Send + 'static {
    let packets = spec.trial_packets;
    let payload = spec.payload as u32;
    let pacing = spec.pacing;
    let core = spec.generator_core;
    // A message leaves the pipeline by returning its shell and each of
    // its segments to the pool.
    let returns_per_pkt = 1 + spec.segs_per_pkt() as u64;
    move |inj| {
        if let Some(core) = core {
            pin_current_thread(core);
        }
        let counters = pool.counters();
        inj.attach_slab_counters(Arc::clone(&counters));
        let mut rep = SourceReport {
            sent_per_flow: vec![0; inputs.flows as usize],
            ..SourceReport::default()
        };
        let mut due: Option<Instant> = None;
        for i in 0..packets {
            if let Some(p) = pacing {
                if i % p.burst as u64 == 0 {
                    let now = Instant::now();
                    let at = *due.get_or_insert(now);
                    if now < at {
                        std::thread::sleep(at - now);
                    }
                    let room = Instant::now() + WINDOW_TIMEOUT;
                    while i + p.burst as u64
                        > p.window + counters.snapshot().returns / returns_per_pkt
                        && Instant::now() < room
                    {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    let late = Instant::now().saturating_duration_since(at);
                    rep.late_ns.push(late.as_nanos() as u64);
                    due = Some(at + p.period());
                }
            }
            let flow = inputs.flow_at(i);
            let seq = rep.sent_per_flow[flow as usize];
            rep.sent_per_flow[flow as usize] += 1;
            let t0 = timed.then(Instant::now);
            let mut wire = pool.lease_shell();
            for seg in inputs.frame(flow, seq) {
                let mut slot = pool.acquire(seg.len());
                let bytes = slot.vec_mut();
                bytes.clear();
                bytes.extend_from_slice(seg);
                wire.segs.push(slot);
            }
            let desc = PktDesc::new(i, flow, seq, rss_hash_for_flow(flow), payload).with_wire(wire);
            if rep.first_inject.is_none() {
                rep.first_inject = Some(Instant::now());
            }
            match t0 {
                Some(t0) => {
                    let t1 = Instant::now();
                    inj.inject(desc);
                    rep.inject_ns += t1.elapsed().as_nanos() as u64;
                    rep.copy_ns += (t1 - t0).as_nanos() as u64;
                    rep.timed += 1;
                }
                None => {
                    inj.inject(desc);
                }
            }
        }
        inj.wait_quiesced();
        pool.drain_returns();
        rep
    }
}

/// Closed-loop loopback sender/receiver behind the ingest crate's
/// [`BatchRx`] trait: a receive call sends the next batch only once the
/// previous one has been drained from the socket and the one before it
/// has left the pipeline. At most one batch is ever in the socket, so a
/// socket drop is a failure, not a load artifact. At most two batches
/// are in the pipeline, so rx and workers still overlap but no queue
/// builds up: with the loop closed at the socket only, runs flip
/// between a full-ring regime (rx outpaces the worker, ~1.3 ms latency)
/// and an empty-ring one, and the latency figures follow.
struct Pump {
    rx: Box<dyn BatchRx>,
    tx: UdpSocket,
    /// One period of the round-robin schedule (a multiple of the batch).
    frames: Vec<Vec<u8>>,
    next: usize,
    batches_left: u64,
    outstanding: usize,
    /// Datagrams received so far.
    received: u64,
    /// When the outstanding batch last made progress.
    progress: Instant,
    done: Arc<AtomicBool>,
    first_send: Option<Instant>,
    send_ns: u64,
    sends: u64,
    recv_ns: u64,
    recvs: u64,
    lost: u64,
}

impl Pump {
    /// Waits until every datagram received before the latest batch has
    /// been delivered or dropped. Each one that leaves the pipeline
    /// returns its shell and its slot to the rx pool, so after a drain
    /// the pool's return counter reads two per finished datagram. Gives
    /// up after the loss timeout rather than hang on a wedged pipeline.
    fn wait_pipeline(&self, batch: &mut RecvBatch) {
        let Some(counters) = batch.pool().map(|p| p.counters()) else {
            return;
        };
        let deadline = Instant::now() + INGEST_LOSS_TIMEOUT;
        loop {
            batch.drain_returns();
            let pending = self.received.saturating_sub(INGEST_BATCH as u64);
            if counters.snapshot().returns >= 2 * pending || Instant::now() > deadline {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl BatchRx for Pump {
    fn recv_batch(&mut self, batch: &mut RecvBatch) -> io::Result<usize> {
        if self.outstanding > 0 && self.progress.elapsed() > INGEST_LOSS_TIMEOUT {
            self.lost += self.outstanding as u64;
            self.outstanding = 0;
        }
        if self.outstanding == 0 {
            if self.batches_left == 0 {
                self.done.store(true, Ordering::Release);
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "schedule done"));
            }
            self.wait_pipeline(batch);
            let frames = &self.frames[self.next..self.next + INGEST_BATCH];
            let t = Instant::now();
            self.first_send.get_or_insert(t);
            sock::send_batch(&self.tx, frames)?;
            self.send_ns += t.elapsed().as_nanos() as u64;
            self.sends += 1;
            self.next = (self.next + INGEST_BATCH) % self.frames.len();
            self.batches_left -= 1;
            self.outstanding = INGEST_BATCH;
            self.progress = Instant::now();
        }
        let t = Instant::now();
        let got = self.rx.recv_batch(batch);
        if let Ok(n) = got {
            self.recv_ns += t.elapsed().as_nanos() as u64;
            self.recvs += 1;
            self.outstanding = self.outstanding.saturating_sub(n);
            self.received += n as u64;
            self.progress = Instant::now();
        }
        got
    }

    fn backend(&self) -> &'static str {
        self.rx.backend()
    }
}

fn ingest_trial(spec: &Spec, inputs: &Arc<Inputs>, telemetry: bool) -> Trial {
    let scenario = spec.scenario(telemetry);
    // Round-robin over the flows; message `seq` of a flow uses template
    // `seq % k`, so the schedule repeats every `flows * k` datagrams.
    let period = (inputs.flows as usize * inputs.k).max(INGEST_BATCH);
    assert_eq!(
        period % INGEST_BATCH,
        0,
        "schedule period must hold whole batches"
    );
    let frames: Vec<Vec<u8>> = (0..period as u64)
        .map(|i| inputs.frame(i % inputs.flows, i / inputs.flows)[0].clone())
        .collect();
    let batches = spec.trial_packets / INGEST_BATCH as u64;
    let flows = inputs.flows;

    let call = Instant::now();
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind loopback rx socket");
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind loopback tx socket");
    tx.connect(rx_sock.local_addr().expect("rx address"))
        .expect("connect loopback tx socket");
    let done = Arc::new(AtomicBool::new(false));
    let mut pump = Pump {
        rx: batch_rx(rx_sock, false).expect("batched rx backend"),
        tx,
        frames,
        next: 0,
        batches_left: batches,
        outstanding: 0,
        received: 0,
        progress: Instant::now(),
        done: Arc::clone(&done),
        first_send: None,
        send_ns: 0,
        sends: 0,
        recv_ns: 0,
        recvs: 0,
        lost: 0,
    };
    let core = spec.generator_core;
    let (out, source) = run_scenario_from(&scenario, move |inj| {
        if let Some(core) = core {
            pin_current_thread(core);
        }
        let cfg = RxConfig {
            batch: INGEST_BATCH,
            drain_ms: 0,
        };
        let rx = rx_into_pipeline(&mut pump, inj, move || done.load(Ordering::Acquire), &cfg);
        inj.wait_quiesced();
        let sent = batches * INGEST_BATCH as u64;
        SourceReport {
            first_inject: pump.first_send,
            sent_per_flow: (0..flows)
                .map(|f| sent / flows + u64::from(f < sent % flows))
                .collect(),
            ingest: Some(IngestReport {
                rx,
                send_ns: pump.send_ns,
                sends: pump.sends,
                recv_ns: pump.recv_ns,
                recvs: pump.recvs,
                lost: pump.lost,
            }),
            ..SourceReport::default()
        }
    });
    let setup_ns = since(call, source.first_inject);
    Trial {
        out,
        source,
        setup_ns,
    }
}
