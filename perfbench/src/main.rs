//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <elephant-tcp4k|mice-udp64|falcon-1flow|ingest-loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the wire pipeline at native cost on one workload for about
//! `--seconds`, checks every delivery against the seeded templates,
//! and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics (median or best decile over repeated trials);
//! `--trace 1` reports the per-layer ledger instead. A provenance line precedes
//! the result. Exits 1 when the correctness oracle fails, 2 on bad
//! arguments. See `perfbench/README.md`.

mod alloc;
mod gen;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::sync::Arc;
use std::time::{Duration, Instant};

use falcon_dataplane::{available_cores, run_meta};
use falcon_trace::DropReason;

use gen::Inputs;
use oracle::Check;
use stats::{median, quantile, quantile_of, ratio};
use workload::{run_trial, Spec, Trial, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Trials each kind of run makes at least, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;
/// Share of a traced run spent on pipeline trials; the rest replays.
const TRACED_PIPELINE_SHARE: f64 = 0.7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// End-to-end figures of one trial.
struct E2e {
    goodput_gbps: f64,
    pps: f64,
    lat_p50_us: f64,
    lat_p90_us: f64,
    setup_s: f64,
}

fn sorted_latencies(t: &Trial) -> Vec<u64> {
    let mut lat: Vec<u64> = t
        .out
        .workers_stats
        .iter()
        .flat_map(|w| w.latencies.iter().copied())
        .collect();
    lat.sort_unstable();
    lat
}

impl E2e {
    fn of(t: &Trial, c: &Check, payload: usize) -> E2e {
        let wall_s = t.out.wall_ns.max(1) as f64 / 1e9;
        let lat = sorted_latencies(t);
        E2e {
            goodput_gbps: (c.delivered_ok * payload as u64 * 8) as f64 / wall_s / 1e9,
            pps: c.delivered_ok as f64 / wall_s,
            lat_p50_us: quantile(&lat, 0.5) as f64 / 1e3,
            lat_p90_us: quantile(&lat, 0.9) as f64 / 1e3,
            setup_s: t.setup_ns as f64 / 1e9,
        }
    }
}

/// Which per-trial figure a run reports.
///
/// A saturating run reports the median trial: a host stall (another
/// tenant, hypervisor steal) slows every message queued behind it by
/// the same amount, so its throughput and its full-ring latency move
/// with the share of time stolen, and the median holds still while
/// that share stays under half.
///
/// A paced run reports its best decile: the throughput one trial in
/// ten reaches, the latency one in ten stays under. Its latency is a
/// worker's wake-up plus a burst's service time, about 100 us, so a
/// single stolen millisecond multiplies the latency of the bursts it
/// covers, and there is no queue to absorb it; the best decile holds
/// still until stalls reach nine trials in ten. A change to the
/// program moves every trial, so it moves this figure too.
///
/// Set-up time is always the median over trials.
fn reported_quantiles(paced: bool) -> (f64, f64) {
    if paced {
        (0.9, 0.1)
    } else {
        (0.5, 0.5)
    }
}

/// Adds the end-to-end metrics; `hi` and `lo` are the quantiles over
/// trials reported for higher-is-better and lower-is-better figures.
fn e2e_metrics(m: &mut Metrics, trials: &[E2e], (hi, lo): (f64, f64)) {
    let at = |q: f64, f: fn(&E2e) -> f64| quantile_of(&trials.iter().map(f).collect::<Vec<_>>(), q);
    m.put("goodput_gbps", at(hi, |e| e.goodput_gbps), "Gb/s");
    m.put("pps", at(hi, |e| e.pps), "packets/s");
    m.put("lat_p50_us", at(lo, |e| e.lat_p50_us), "us");
    m.put("lat_p90_us", at(lo, |e| e.lat_p90_us), "us");
    m.put("setup_s", at(0.5, |e| e.setup_s), "s");
}

/// Sets the calling thread's timer slack to 1 ns; every thread it
/// spawns afterwards (workers, generator, sampler) inherits it. Idle
/// workers park for 50 us and the paced generator sleeps to its burst
/// deadline; with the default 50 us slack each of those wakes anywhere
/// in a window as wide as the park itself, so latency would follow the
/// kernel's timer coalescing rather than the program.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // touches no memory of the caller.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    if rc != 0 {
        eprintln!("perfbench: could not set the timer slack; latency keeps the default");
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// One run: the workload, its inputs, and the oracle's running totals.
struct Run {
    spec: Spec,
    inputs: Arc<Inputs>,
    total: Check,
    trials: usize,
    /// Paced workloads: lateness of every burst of every trial, ns.
    late_ns: Vec<u64>,
}

impl Run {
    fn trial(&mut self, telemetry: bool, timed: bool) -> (Trial, Check) {
        let t = run_trial(&self.spec, &self.inputs, telemetry, timed);
        let c = Check::of(&t, &self.inputs);
        for (name, n) in c.named() {
            eprintln!("perfbench: trial {}: {name} = {n}", self.trials);
        }
        self.total.add(&c);
        self.trials += 1;
        self.late_ns.extend_from_slice(&t.source.late_ns);
        (t, c)
    }

    fn late_p99_us(&mut self) -> f64 {
        self.late_ns.sort_unstable();
        quantile(&self.late_ns, 0.99) as f64 / 1e3
    }
}

/// Pipeline counters summed over the traced trials.
#[derive(Default)]
struct Pipe {
    delivered: u64,
    busy: u64,
    push: u64,
    pop: u64,
    guard: u64,
    idle: u64,
    wall: u64,
    idle_parks: u64,
    migrations: u64,
    second_choices: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    conntrack_entries: Vec<f64>,
    latencies: Vec<u64>,
    copy_ns: u64,
    inject_ns: u64,
    timed: u64,
    send_ns: u64,
    sends: u64,
    recv_ns: u64,
    recvs: u64,
    datagrams: u64,
    eagain: u64,
    sock_drops: u64,
}

impl Pipe {
    fn absorb(&mut self, t: &Trial) {
        let out = &t.out;
        self.delivered += out.delivered();
        for w in &out.workers_stats {
            self.busy += w.stall.busy_ns;
            self.push += w.stall.stall_push_ns;
            self.pop += w.stall.stall_pop_ns;
            self.guard += w.stall.guard_wait_ns;
            self.idle += w.stall.idle_ns;
            self.wall += w.stall.wall_ns;
            self.idle_parks += w.idle_parks;
            self.migrations += w.migrations;
            self.second_choices += w.second_choices;
        }
        let cache = out.flow_cache_stats();
        self.hits += cache.hits;
        self.misses += cache.misses;
        self.evictions += cache.evictions;
        if let Some(table) = out.conntrack_table() {
            self.conntrack_entries.push(table.len() as f64);
        }
        let lat = out.workers_stats.iter().flat_map(|w| w.latencies.iter());
        self.latencies.extend(lat);
        let s = &t.source;
        self.copy_ns += s.copy_ns;
        self.inject_ns += s.inject_ns;
        self.timed += s.timed;
        if let Some(i) = &s.ingest {
            self.send_ns += i.send_ns;
            self.sends += i.sends;
            self.recv_ns += i.recv_ns;
            self.recvs += i.recvs;
            self.datagrams += i.rx.datagrams;
            self.eagain += i.rx.eagain_spins;
            self.sock_drops += i.rx.sock_drops.unwrap_or(0);
        }
    }

    /// Non-idle worker time per delivered packet.
    fn busy_ns_per_pkt(&self) -> f64 {
        ratio((self.wall - self.idle) as f64, self.delivered as f64)
    }
}

/// `--trace 0`: repeated untraced trials, one quantile over trials of
/// each end-to-end figure (see [`reported_quantiles`]).
fn untraced(run: &mut Run, budget: Duration, m: &mut Metrics) {
    let start = Instant::now();
    run.trial(false, false); // warm-up: checked and counted, not reported
    let mut e = Vec::new();
    while e.len() < MIN_TRIALS || start.elapsed() < budget {
        let (t, c) = run.trial(false, false);
        e.push(E2e::of(&t, &c, run.spec.payload));
    }
    e2e_metrics(m, &e, reported_quantiles(run.spec.pacing.is_some()));
}

/// `--trace 1`: untraced and traced trials interleaved (the traced ones
/// with telemetry on and the source timing itself), then the
/// single-threaded replay. Returns the generator-validity verdict.
fn traced(run: &mut Run, budget: Duration, m: &mut Metrics) -> Result<(), String> {
    let start = Instant::now();
    let pipeline_budget = budget.mul_f64(TRACED_PIPELINE_SHARE);
    run.trial(false, false);
    let (mut plain, mut with_telemetry) = (Vec::new(), Vec::new());
    let mut pipe = Pipe::default();
    while with_telemetry.len() < MIN_TRIALS || start.elapsed() < pipeline_budget {
        let (t, c) = run.trial(false, false);
        plain.push(E2e::of(&t, &c, run.spec.payload));
        let (t, c) = run.trial(true, true);
        with_telemetry.push(E2e::of(&t, &c, run.spec.payload));
        pipe.absorb(&t);
    }
    let rest = budget.saturating_sub(start.elapsed());
    let replay = replay::run(&run.spec, &run.inputs, rest);

    pipe.latencies.sort_unstable();
    let p = &pipe;
    let pkts = p.delivered as f64;
    let busy = p.busy_ns_per_pkt();
    for (name, ns) in &replay.layer_ns {
        m.put(name, *ns, "ns");
    }
    m.put("alloc.per_pkt", replay.allocs_per_pkt, "count");
    m.put(
        "wire.flow_cache.hit_ratio",
        ratio(p.hits as f64, (p.hits + p.misses) as f64),
        "ratio",
    );
    m.put(
        "wire.flow_cache.evictions",
        ratio(p.evictions as f64 * 1e3, pkts),
        "1/kpkt",
    );
    m.put("conntrack.entries", median(&p.conntrack_entries), "count");
    m.put(
        "packet.slab.fallbacks",
        run.total.slab_fallbacks as f64,
        "count",
    );
    for (name, bucket) in [
        ("busy", p.busy),
        ("push", p.push),
        ("pop", p.pop),
        ("guard", p.guard),
        ("idle", p.idle),
    ] {
        let share = ratio(bucket as f64, p.wall as f64);
        m.put(&format!("dataplane.stall.{name}_share"), share, "ratio");
    }
    m.put(
        "dataplane.idle_parks_per_kpkt",
        ratio(p.idle_parks as f64 * 1e3, pkts),
        "1/kpkt",
    );
    m.put(
        "dataplane.migrations",
        ratio(p.migrations as f64 * 1e6, pkts),
        "1/Mpkt",
    );
    m.put(
        "dataplane.second_choices",
        ratio(p.second_choices as f64 * 1e6, pkts),
        "1/Mpkt",
    );
    let per_million = |n: u64| ratio(n as f64 * 1e6, run.total.attempted as f64);
    let drops = run.total.drops;
    m.put(
        "dataplane.drops.backlog",
        per_million(drops[DropReason::Backlog.index()]),
        "ppm",
    );
    m.put(
        "dataplane.drops.ring",
        per_million(drops[DropReason::Ring.index()]),
        "ppm",
    );
    m.put("loss_ppm", per_million(run.total.failed()), "ppm");
    m.put(
        "dataplane.lat_p99_us",
        quantile(&p.latencies, 0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "dataplane.lat_p999_us",
        quantile(&p.latencies, 0.999) as f64 / 1e3,
        "us",
    );
    m.put("dataplane.lat_samples", p.latencies.len() as f64, "count");
    m.put(
        "ingest.recv_batch_ns",
        ratio(p.recv_ns as f64, p.recvs as f64),
        "ns",
    );
    m.put(
        "ingest.send_batch_ns",
        ratio(p.send_ns as f64, p.sends as f64),
        "ns",
    );
    m.put(
        "ingest.datagrams_per_batch",
        ratio(p.datagrams as f64, p.recvs as f64),
        "count",
    );
    m.put(
        "ingest.eagain_polls",
        ratio(p.eagain as f64 * 1e3, p.datagrams as f64),
        "1/kpkt",
    );
    m.put("ingest.sock_drops", p.sock_drops as f64, "count");
    let copy = ratio(p.copy_ns as f64, p.timed as f64);
    m.put("source.copy_ns_per_pkt", copy, "ns");
    m.put(
        "source.inject_ns_per_pkt",
        ratio(p.inject_ns as f64, p.timed as f64),
        "ns",
    );
    let late = run.late_p99_us();
    m.put("source.late_p99_us", late, "us");
    m.put("dataplane.busy_ns_per_pkt", busy, "ns");
    m.put("ledger.replay_ns_per_pkt", replay.ledger_ns_per_pkt, "ns");
    m.put(
        "ledger.coverage",
        ratio(replay.ledger_ns_per_pkt, busy),
        "ratio",
    );
    m.put(
        "ledger.unattributed_ns_per_pkt",
        busy - replay.ledger_ns_per_pkt,
        "ns",
    );
    let goodput = |e: &[E2e]| median(&e.iter().map(|x| x.goodput_gbps).collect::<Vec<_>>());
    let overhead = 1.0 - ratio(goodput(&with_telemetry), goodput(&plain));
    m.put("telemetry.overhead", overhead, "ratio");

    match run.spec.pacing {
        Some(p) if late > p.period().as_nanos() as f64 / 1e3 => Err(format!(
            "source.late_p99_us {late:.1} exceeds the {:.1} us burst period",
            p.period().as_nanos() as f64 / 1e3
        )),
        None if copy >= busy => Err(format!(
            "source.copy_ns_per_pkt {copy:.1} reaches dataplane.busy_ns_per_pkt {busy:.1}"
        )),
        _ => Ok(()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    tighten_timer_slack();
    let nproc = available_cores();
    let Some(spec) = Spec::by_name(&args.workload, nproc) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let inputs = Arc::new(Inputs::build(&spec, args.seed));
    let mut run = Run {
        spec,
        inputs,
        total: Check::default(),
        trials: 0,
        late_ns: Vec::new(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::default();
    let validity = if args.trace {
        traced(&mut run, budget, &mut metrics)
    } else {
        untraced(&mut run, budget, &mut metrics);
        let late = run.late_p99_us();
        match run.spec.pacing {
            Some(p) if late > p.period().as_nanos() as f64 / 1e3 => Err(format!(
                "source.late_p99_us {late:.1} exceeds the burst period"
            )),
            _ => Ok(()),
        }
    };
    if let Err(why) = &validity {
        eprintln!("perfbench: invalid run: {why}");
    }
    // The saturating workloads' guard needs the source's copy timing,
    // which only the traced run takes: untraced, their validity is
    // unchecked (null).
    let valid = if args.trace || run.spec.pacing.is_some() {
        validity.is_ok().to_string()
    } else {
        "null".to_string()
    };

    let spec = &run.spec;
    let busy_threads = spec.workers + workload::GENERATOR_THREADS;
    let violations: Vec<String> = run
        .total
        .named()
        .iter()
        .map(|(n, c)| format!("\"{n}\": {c}"))
        .collect();
    let meta = serde_json::to_string(&run_meta("perfbench")).unwrap_or_else(|_| "null".into());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {}, \"generator_threads\": {}, \"busy_threads\": {busy_threads}, \
         \"oversubscribed\": {}, \"trials\": {}, \"valid\": {}, \"invalid_reason\": {}, \
         \"violations\": {{{}}}, \"run_meta\": {meta}}}}}",
        spec.name,
        args.seed,
        args.trace,
        spec.workers,
        workload::GENERATOR_THREADS,
        busy_threads > nproc,
        run.trials,
        valid,
        validity.as_ref().err().map_or("null".into(), |w| format!("{w:?}")),
        violations.join(", "),
    );
    let correct = run.total.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.total.attempted,
        run.total.failed(),
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "mice-udp64",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "mice-udp64");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn every_workload_is_defined() {
        for name in WORKLOADS {
            assert_eq!(Spec::by_name(name, 2).unwrap().name, name);
        }
        assert!(Spec::by_name("nope", 2).is_none());
    }
}
