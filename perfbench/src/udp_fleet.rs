//! `udp_fleet`: the real server path.
//!
//! A [`UdpServer`] on its default (epoll) backend with 2 shards over
//! loopback serves 10,000 paced CBR sessions of 64 B symbols at
//! (κ, μ) = (2, 3) over 5 channels, Shamir coded, with session phases
//! staggered from the seed. The load is open loop: engines send on
//! schedule whether or not earlier symbols arrived. One run has two
//! phases, each on a freshly set-up server: a *steady* phase at 40,000
//! sym/s aggregate offered, then an *overload* phase at 400,000 sym/s.
//!
//! While a phase runs, a sampler thread reads process CPU time
//! (`/proc/self/stat`), per-thread on-CPU time
//! (`/proc/self/task/*/schedstat`) and the shards' counters at the
//! measured window's edges and midpoint.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcss_base::SimTime;
use mcss_codec::CodecId;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{SessionReport, Workload};
use mcss_server::{
    RunPhases, ServerConfig, ShardStats, ShardStatsSnapshot, UdpServer, WindowStats,
};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

use crate::common::{mix, Args};
use crate::core_bulk::{self, delivery_ratio, gate_zero_counts, Rig, Spec, Until};
use crate::procfs::{self, CpuTimes};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Sessions registered on the server.
pub const SESSIONS: u32 = 10_000;
const SHARDS: usize = 2;
const CHANNELS: usize = 5;
/// The fleet's sessions: 64 B symbols at (κ, μ) = (2, 3), Shamir. The
/// in-process replay drives them through a [`Rig`] with a lossless
/// wire and one poll per round over the fleet.
const FLEET: Spec = Spec {
    sessions: SESSIONS,
    kappa: 2,
    mu: 3,
    symbol_bytes: 64,
    codecs: &[CodecId::Shamir],
    share_loss: 0.0,
    poll_every: SESSIONS as u64,
};
/// Aggregate offered load of the steady phase, sym/s.
pub const STEADY_OFFERED: f64 = 40_000.0;
/// Aggregate offered load of the overload phase, sym/s.
pub const OVERLOAD_OFFERED: f64 = 400_000.0;
/// Ramp-up before each measured window (sessions start, pools warm,
/// reuseport routing settles).
const WARMUP: Duration = Duration::from_millis(1000);
/// Tail after each measured window so in-flight symbols land.
const DRAIN: Duration = Duration::from_millis(500);
/// Share of `--seconds` measured in the steady phase; the rest goes to
/// the overload phase.
const STEADY_SHARE: f64 = 0.4;
/// Steady-phase repetitions, each on a freshly set-up server; the
/// steady metrics are their medians, so one disturbed repetition does
/// not move them.
const STEADY_REPS: usize = 3;
/// Set-ups timed on their own, without a phase after them, on top of
/// one per phase; `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 5;
/// Symbols in the fixed unit of work `sweep_s` times.
const UNIT_SYMBOLS: f64 = 100_000.0;
/// Symbols offered per session in the traced rounds of the
/// in-process replay.
const REPLAY_ROUNDS: u64 = 3;
/// Spans the replay stores.
const REPLAY_SPANS: usize = 50_000;

/// Span names of the phases.
static PHASE_SPANS: &[&str] = &["phase.steady", "phase.overload"];
const SP_STEADY: usize = 0;
const SP_OVERLOAD: usize = 1;

fn protocol() -> Arc<ProtocolConfig> {
    Arc::new(FLEET.protocol(CodecId::Shamir))
}

/// Registers the fleet on a fresh server. Returns the server, the set-up
/// time and the resident-set growth across registration.
fn set_up(seed: u64, aggregate: f64, duration: Duration) -> (UdpServer, f64, i64) {
    let t = Instant::now();
    let mut server = UdpServer::new(ServerConfig::with_shards(SHARDS), protocol(), CHANNELS)
        .expect("loopback sockets bind");
    let rss0 = procfs::rss_bytes().unwrap_or(0);
    let rate = aggregate / f64::from(SESSIONS);
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    for cid in 0..SESSIONS {
        let phase = SimTime::from_secs_f64(rng.random::<f64>() / rate);
        let workload =
            Workload::cbr(rate, SimTime::from_nanos(duration.as_nanos() as u64)).with_phase(phase);
        server
            .add_session(cid, workload, mix(seed, 1000 + u64::from(cid)))
            .expect("session registers");
    }
    let rss1 = procfs::rss_bytes().unwrap_or(0);
    (server, t.elapsed().as_secs_f64(), rss1 as i64 - rss0 as i64)
}

/// Counter and CPU readings at one instant of a phase.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    at: Option<Instant>,
    cpu: CpuTimes,
    stats: ShardStatsSnapshot,
    /// On-CPU nanoseconds of the shard threads, summed per thread id.
    threads: [u64; SHARDS],
}

/// Everything one phase measured.
#[derive(Debug)]
struct Phase {
    setup_s: f64,
    rss_growth: i64,
    window: WindowStats,
    samples: [Sample; 3],
    reports: Vec<SessionReport>,
    totals: ShardStatsSnapshot,
    backend: &'static str,
}

impl Phase {
    fn cpu(&self, from: usize, to: usize) -> CpuTimes {
        self.samples[to].cpu.since(&self.samples[from].cpu)
    }

    fn delivered(&self, from: usize, to: usize) -> u64 {
        self.samples[to].stats.symbols_delivered - self.samples[from].stats.symbols_delivered
    }

    fn wall(&self, from: usize, to: usize) -> f64 {
        match (self.samples[from].at, self.samples[to].at) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => f64::NAN,
        }
    }
}

fn sum_stats(stats: &[Arc<ShardStats>]) -> ShardStatsSnapshot {
    let mut total = ShardStatsSnapshot::default();
    for s in stats {
        total.add(&s.get());
    }
    total
}

/// Runs one phase on a fresh server: warm-up, `measure`, drain.
fn run_phase(seed: u64, aggregate: f64, measure: Duration) -> Phase {
    let duration = WARMUP + measure;
    let (mut server, setup_s, rss_growth) = set_up(seed, aggregate, duration);
    let stats: Vec<Arc<ShardStats>> = (0..SHARDS)
        .map(|i| Arc::clone(server.shards().shard(i).stats()))
        .collect();
    let main_tid = procfs::current_tid();
    let phases = RunPhases {
        warmup: WARMUP,
        measure,
        drain: DRAIN,
    };
    let mut samples = [Sample::default(); 3];
    let summary = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let own_tid = procfs::current_tid();
            let start = Instant::now();
            let edges = [WARMUP, WARMUP + measure / 2, WARMUP + measure];
            let mut out = [Sample::default(); 3];
            for (slot, edge) in out.iter_mut().zip(edges) {
                std::thread::sleep(edge.saturating_sub(start.elapsed()));
                let mut threads = [0u64; SHARDS];
                let shard_threads = procfs::thread_run_ns()
                    .into_iter()
                    .filter(|&(tid, _)| Some(tid) != main_tid && Some(tid) != own_tid);
                for (slot, (_, ns)) in threads.iter_mut().zip(shard_threads) {
                    *slot = ns;
                }
                *slot = Sample {
                    at: Some(Instant::now()),
                    cpu: procfs::process_cpu().unwrap_or_default(),
                    stats: sum_stats(&stats),
                    threads,
                };
            }
            out
        });
        let summary = server.run_phases(phases).expect("server run completes");
        samples = sampler.join().expect("sampler thread finished");
        summary
    });
    let window = SimTime::from_nanos(summary.run.elapsed.as_nanos() as u64);
    let reports = server
        .session_reports(window)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    Phase {
        setup_s,
        rss_growth,
        window: summary.window,
        samples,
        reports,
        totals: server.shards().totals(),
        backend: server.backend().name(),
    }
}

fn session_delays(reports: &[SessionReport], scale: f64) -> Option<Summary> {
    let mut v: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.mean_one_way_delay)
        .map(|d| d.as_secs_f64() * scale)
        .collect();
    Summary::of(&mut v)
}

/// The steady repetitions and the overload phase of one run.
struct Runs {
    steady: Vec<Phase>,
    overload: Phase,
}

impl Runs {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.steady.iter().chain(std::iter::once(&self.overload))
    }

    fn reports(&self) -> impl Iterator<Item = &SessionReport> {
        self.phases().flat_map(|p| &p.reports)
    }

    /// Median over the steady repetitions of `f`.
    fn steady_median(&self, f: impl Fn(&Phase) -> f64) -> f64 {
        let mut v: Vec<f64> = self.steady.iter().map(f).collect();
        median(&mut v).unwrap_or(f64::NAN)
    }
}

fn run_all(args: &Args) -> Runs {
    let steady_secs = args.seconds.mul_f64(STEADY_SHARE);
    let each = steady_secs / STEADY_REPS as u32;
    let steady = (0..STEADY_REPS)
        .map(|i| run_phase(mix(args.seed, 10 + i as u64), STEADY_OFFERED, each))
        .collect();
    let overload = run_phase(
        mix(args.seed, 2),
        OVERLOAD_OFFERED,
        args.seconds.saturating_sub(steady_secs),
    );
    Runs { steady, overload }
}

fn gates(out: &mut Outcome, runs: &Runs) {
    for (i, phase) in runs.phases().enumerate() {
        let name = if i < runs.steady.len() {
            format!("steady {}", i + 1)
        } else {
            "overload".to_string()
        };
        gate_zero_counts(
            out,
            &format!("{name}: "),
            &phase.reports,
            Some(&phase.totals),
        );
        out.gate(
            format!("{name}: all sessions reported"),
            phase.reports.len() == SESSIONS as usize,
            format!("{} of {SESSIONS}", phase.reports.len()),
        );
    }
}

/// Process CPU per delivered symbol over a steady phase's window.
fn cpu_us_per_sym(p: &Phase) -> f64 {
    p.cpu(0, 2).total_s() * 1e6 / p.delivered(0, 2).max(1) as f64
}

/// The untraced run.
pub fn run(args: &Args, out: &mut Outcome) {
    let runs = run_all(args);
    out.attempted = runs.reports().map(|r| r.sent_symbols).sum();
    out.failed = runs.reports().map(|r| r.corrupted_symbols).sum();
    let mut setups: Vec<f64> = runs.phases().map(|p| p.setup_s).collect();
    setups.extend(
        (0..EXTRA_SETUPS).map(|i| set_up(mix(args.seed, 20 + i as u64), STEADY_OFFERED, WARMUP).1),
    );
    out.setup_s(&mut setups);
    let delivered_steady: u64 = runs.steady.iter().map(|p| p.window.delivered_symbols).sum();
    out.metric(
        "sym_per_s",
        runs.steady_median(|p| p.window.delivered_per_sec()),
        "sym/s",
        delivered_steady,
    );
    // Delays are taken in the overload phase, where queues are full and
    // the delay is set by queue capacity over throughput. In the steady
    // phase the sessions' mean delays swing by an order of magnitude
    // with host speed (every session's reassembly sweep fires in the
    // same instant, every 125 ms, and the resulting stalls grow
    // superlinearly on a slower host); they are printed below and
    // reported by the traced run.
    let overload_delays_us = session_delays(&runs.overload.reports, 1e6);
    let n = overload_delays_us.map_or(0, |s| s.count) as u64;
    let pick = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(f64::NAN, f);
    out.metric(
        "sym_latency_p50_us",
        pick(overload_delays_us, |s| s.p50),
        "us",
        n,
    );
    out.metric(
        "sym_latency_p99_us",
        pick(overload_delays_us, |s| s.p99),
        "us",
        n,
    );
    let steady_reports: Vec<SessionReport> = runs
        .steady
        .iter()
        .flat_map(|p| p.reports.iter().copied())
        .collect();
    let (ratio, delivered, sent) = delivery_ratio(&[], &steady_reports);
    out.metric("delivered_ratio", ratio, "1", sent);
    out.metric(
        "cpu_us_per_sym",
        runs.steady_median(cpu_us_per_sym),
        "us",
        delivered_steady,
    );
    let overload_delays_ms = session_delays(&runs.overload.reports, 1e3);
    out.metric(
        "session_delay_p50_ms",
        pick(overload_delays_ms, |s| s.p50),
        "ms",
        n,
    );
    out.metric(
        "session_delay_p99_ms",
        pick(overload_delays_ms, |s| s.p99),
        "ms",
        n,
    );
    let overload = &runs.overload;
    let peak = overload.window.delivered_per_sec();
    out.metric(
        "peak_sym_per_s",
        peak,
        "sym/s",
        overload.window.delivered_symbols,
    );
    out.metric(
        "sweep_s",
        UNIT_SYMBOLS / peak,
        "s",
        overload.window.delivered_symbols,
    );
    out.metric(
        "peak_rss_mb",
        procfs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
        "MiB",
        1,
    );
    gates(out, &runs);
    out.note(format!(
        "io backend {}; {} steady windows of {:.3} s ({delivered} of {sent} symbols \
         eventually delivered); overload window {:.3} s",
        overload.backend,
        runs.steady.len(),
        runs.steady
            .first()
            .map_or(f64::NAN, |p| p.window.window.as_secs_f64()),
        overload.window.window.as_secs_f64()
    ));
    if let Some(s) = overload_delays_ms {
        out.note(format!(
            "overload: session delay tail rule allows p{} = {:.4} ms over {} sessions",
            s.tail_p.unwrap_or(f64::NAN),
            s.tail.unwrap_or(f64::NAN),
            s.count
        ));
    }
    for (i, p) in runs.steady.iter().enumerate() {
        if let Some(s) = session_delays(&p.reports, 1e3) {
            out.note(format!(
                "steady {}: session delay p50 {:.4} ms, p99 {:.4} ms, tail rule allows \
                 p{} = {:.4} ms over {} sessions; cpu {:.3} us/sym",
                i + 1,
                s.p50,
                s.p99,
                s.tail_p.unwrap_or(f64::NAN),
                s.tail.unwrap_or(f64::NAN),
                s.count,
                cpu_us_per_sym(p)
            ));
        }
    }
}

/// Per-symbol cost of the shard layer at 10,000 sessions, in process:
/// the same fleet as [`ShardSet`](mcss_server::ShardSet)
/// external-source sessions driven synchronously by a [`Rig`], one
/// symbol per session per round, no loss.
pub struct Replay {
    /// The spans of the traced rounds.
    pub tracer: Tracer,
    /// Symbols in the traced rounds.
    pub symbols: u64,
    /// Datagrams delivered in the traced rounds.
    pub datagrams: u64,
    /// Symbols checked, warm-up round included.
    pub checked: u64,
    /// Wrong symbols, warm-up round included.
    pub failed: u64,
}

fn replay(seed: u64, epoch: Instant) -> Replay {
    let mut rig = Rig::build(mix(seed, 9), FLEET);
    // One untraced round first, so no traced symbol pays a session's
    // first-touch pool and buffer growth.
    let warm = rig.window(Until::Symbols(u64::from(SESSIONS)), None);
    let mut tracer = Tracer::new(core_bulk::SPANS, epoch, REPLAY_SPANS);
    let traced = rig.window(
        Until::Symbols(REPLAY_ROUNDS * u64::from(SESSIONS)),
        Some(&mut tracer),
    );
    Replay {
        tracer,
        symbols: traced.attempted,
        datagrams: traced.datagrams,
        checked: warm.attempted + traced.attempted,
        failed: warm.failed + traced.failed,
    }
}

/// The traced run: both phases with their counters, per-thread CPU and
/// window halves, then the in-process 10k-session replay.
pub fn run_traced(args: &Args, out: &mut Outcome, epoch: Instant) -> Vec<Tracer> {
    let mut phases = Tracer::new(PHASE_SPANS, epoch, 2);
    phases.begin(SP_STEADY, None);
    let steady_secs = args.seconds.mul_f64(STEADY_SHARE);
    let steady = run_phase(args.seed, STEADY_OFFERED, steady_secs);
    phases.end();
    phases.begin(SP_OVERLOAD, None);
    let overload = run_phase(
        mix(args.seed, 2),
        OVERLOAD_OFFERED,
        args.seconds.saturating_sub(steady_secs),
    );
    phases.end();
    let runs = Runs {
        steady: vec![steady],
        overload,
    };
    let rep = replay(args.seed, epoch);
    out.attempted = rep.checked + runs.reports().map(|r| r.sent_symbols).sum::<u64>();
    out.failed = rep.failed + runs.reports().map(|r| r.corrupted_symbols).sum::<u64>();
    gates(out, &runs);
    out.gate(
        "in-process replay payloads byte-exact",
        rep.failed == 0,
        format!("{} of {} symbols wrong", rep.failed, rep.checked),
    );
    let (steady, overload) = (&runs.steady[0], &runs.overload);
    let w = &steady.window;
    let cpu = steady.cpu(0, 2);
    let delivered = steady.delivered(0, 2).max(1) as f64;
    let wall = steady.wall(0, 2);
    let cpu_us = cpu.total_s() * 1e6 / delivered;
    let t = &rep.tracer;
    let per = |span: usize, n: u64| t.agg(span).total_ns as f64 / n.max(1) as f64;
    let offer_ns = per(core_bulk::SP_OFFER, rep.symbols);
    let deliver_ns = per(core_bulk::SP_DELIVER, rep.datagrams);
    // The symbol root spans hold the shard-set calls of each symbol;
    // the once-per-round polls are root spans of their own.
    let shard_ns_per_sym =
        per(core_bulk::SP_SYMBOL, rep.symbols) + per(core_bulk::SP_POLL, rep.symbols);
    let datagrams = (w.datagrams_received + w.datagrams_sent).max(1) as f64;
    let busy: Vec<f64> = (0..SHARDS)
        .map(|i| {
            (steady.samples[2].threads[i] - steady.samples[0].threads[i]) as f64 / (wall * 1e9)
        })
        .collect();
    let kernel_us = cpu.sys_s * 1e6 / delivered;
    let shard_us = shard_ns_per_sym / 1e3;
    out.metric("server.offer_ns", offer_ns, "ns", rep.symbols);
    out.metric(
        "server.deliver_datagram_ns",
        deliver_ns,
        "ns",
        rep.datagrams,
    );
    out.metric(
        "server.handoffs_per_datagram",
        w.handoffs as f64 / w.datagrams_received.max(1) as f64,
        "1",
        w.datagrams_received,
    );
    out.metric("udp.sys_cpu_share", cpu.sys_s / cpu.total_s(), "1", 1);
    out.metric(
        "udp.syscalls_per_datagram",
        (w.syscalls_recv + w.syscalls_send) as f64 / datagrams,
        "1",
        w.syscalls_recv + w.syscalls_send,
    );
    out.metric(
        "udp.datagrams_per_wakeup",
        datagrams / w.wakeups.max(1) as f64,
        "1",
        w.wakeups,
    );
    out.metric("udp.send_drops", w.send_drops as f64, "count", 1);
    out.metric(
        "udp.handoff_rejected",
        (steady.totals.handoff_rejected + overload.totals.handoff_rejected) as f64,
        "count",
        1,
    );
    let offered: u64 = steady.reports.iter().map(|r| r.offered_symbols).sum();
    let sent: u64 = steady.reports.iter().map(|r| r.sent_symbols).sum();
    out.metric(
        "udp.sent_over_offered",
        sent as f64 / offered.max(1) as f64,
        "1",
        offered,
    );
    out.metric(
        "udp.shard_thread_busy",
        busy.iter().sum::<f64>() / SHARDS as f64,
        "1",
        SHARDS as u64,
    );
    out.metric(
        "udp.bytes_per_session",
        steady.rss_growth as f64 / f64::from(SESSIONS),
        "B",
        u64::from(SESSIONS),
    );
    let steady_delays = session_delays(&steady.reports, 1e3);
    let n_sessions = steady_delays.map_or(0, |s| s.count) as u64;
    out.metric(
        "udp.steady_delay_p50_ms",
        steady_delays.map_or(f64::NAN, |s| s.p50),
        "ms",
        n_sessions,
    );
    out.metric(
        "udp.steady_delay_p99_ms",
        steady_delays.map_or(f64::NAN, |s| s.p99),
        "ms",
        n_sessions,
    );
    out.metric("udp.kernel_us_per_sym", kernel_us, "us", 1);
    out.metric("udp.shard_us_per_sym", shard_us, "us", rep.symbols);
    out.metric(
        "udp.residual_us_per_sym",
        cpu_us - kernel_us - shard_us,
        "us",
        1,
    );
    let half = |from: usize, to: usize| {
        steady.cpu(from, to).total_s() * 1e6 / steady.delivered(from, to).max(1) as f64
    };
    let (first, second) = (half(0, 1), half(1, 2));
    out.metric("warmup.second_over_first", second / first, "1", 2);
    out.note(format!(
        "budget vs cpu_us_per_sym {cpu_us:.3} us: shard layer in process (10k sessions) \
         {shard_us:.3} us, kernel (sys time) {kernel_us:.3} us, residual {:.3} us",
        cpu_us - kernel_us - shard_us
    ));
    out.note(format!(
        "steady window halves: cpu_us_per_sym {first:.3} / {second:.3}; \
         delivered {:.0} / {:.0} sym/s",
        steady.delivered(0, 1) as f64 / steady.wall(0, 1),
        steady.delivered(1, 2) as f64 / steady.wall(1, 2)
    ));
    out.note(format!(
        "shard thread busy: {}",
        busy.iter()
            .map(|b| format!("{b:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    vec![phases, rep.tracer]
}
