//! `paper_sweep`: the paper-reproduction user's job.
//!
//! The full Figure 3 grid (Identical-100 and Diverse panels) and the
//! full Figure 5 grid (Lossy setup: an LP-optimal loss prediction plus
//! a simulated session per point), fanned out over 2 workers with the
//! `mcss_bench` sweep runner. Points are evaluated the way the figure
//! modules evaluate them, through the same public functions, except
//! that each point's simulation seed is perturbed by the run seed and
//! the simulation advances in 100 ms slices so per-slice cost can be
//! sampled.

use std::time::Instant;

use mcss_bench::fig3::{self, GridPoint};
use mcss_bench::sweep::{self, Timed};
use mcss_bench::Mode;
use mcss_core::lp_schedule::{self, Objective};
use mcss_core::{setups, ChannelSet};
use mcss_netsim::{SimTime, Simulator};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::session::{Session, SessionReport, Workload};
use mcss_remicss::testbed;

use crate::common::{mix, Args};
use crate::core_bulk::gate_zero_counts;
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Sweep workers.
pub const WORKERS: usize = 2;
const MODE: Mode = Mode::Full;
/// Simulated time per `run_until` slice inside the traffic window.
const SLICE: SimTime = SimTime::from_millis(100);
/// Simulated tail after the traffic window (as `mcss_bench::run_session`).
const TAIL: SimTime = SimTime::from_secs(1);
/// Fig. 3 mean achieved/optimal must reach this (the paper's 3–4%).
const FIG3_MIN_MEAN_RATIO: f64 = 0.97;
/// Nominal wall time of one sweep on a 2-core host; `--seconds` buys
/// one sweep per this much.
const NOMINAL_SWEEP: std::time::Duration = std::time::Duration::from_secs(8);
/// Spans stored per point in the traced run.
const SPANS_PER_POINT: usize = 64;

/// Span names of the traced sweep.
pub static SPANS: &[&str] = &[
    "point",
    "lp.solve",
    "core.optimal_rate",
    "sim.build",
    "sim.run_until",
    "sim.report",
    "sweep",
];
const SP_POINT: usize = 0;
const SP_LP: usize = 1;
const SP_RATE: usize = 2;
const SP_BUILD: usize = 3;
const SP_RUN: usize = 4;
const SP_REPORT: usize = 5;
const SP_SWEEP: usize = 6;

/// Which figure panel a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Panel {
    Identical,
    Diverse,
    Lossy,
}

/// One point of the combined grid.
#[derive(Debug, Clone, Copy)]
struct Point {
    panel: Panel,
    grid: GridPoint,
    seed: u64,
}

/// What one point produced.
#[derive(Debug)]
struct PointOut {
    panel: Panel,
    optimal: f64,
    actual: f64,
    report: SessionReport,
    events: u64,
    /// `(wall seconds, symbols delivered)` of each traffic-window slice.
    slices: Vec<(f64, u64)>,
    tracer: Option<Tracer>,
}

/// The channel sets, built once per run.
struct Setups {
    identical: ChannelSet,
    diverse: ChannelSet,
    lossy: ChannelSet,
}

impl Setups {
    fn of(&self, panel: Panel) -> &ChannelSet {
        match panel {
            Panel::Identical => &self.identical,
            Panel::Diverse => &self.diverse,
            Panel::Lossy => &self.lossy,
        }
    }
}

fn channel_sets() -> Setups {
    Setups {
        identical: setups::identical(100.0),
        diverse: setups::diverse(),
        lossy: setups::lossy(),
    }
}

/// The combined grid for sweep number `sweep` of a run: each point's
/// seed is its figure's own seed function perturbed by the run seed
/// and the sweep number, so repeated sweeps simulate fresh sessions.
fn grid(setups: &Setups, seed: u64, sweep: usize) -> Vec<Point> {
    let perturb = mix(seed, 11 + sweep as u64);
    let mut points = Vec::new();
    for panel in [Panel::Identical, Panel::Diverse, Panel::Lossy] {
        for grid in fig3::grid(setups.of(panel).len(), MODE) {
            let base = match panel {
                Panel::Lossy => mcss_bench::fig5::seed(grid.kappa_i, grid.mu),
                _ => fig3::seed(grid.kappa_i, grid.mu),
            };
            points.push(Point {
                panel,
                grid,
                seed: base ^ perturb,
            });
        }
    }
    points
}

/// Sweeps per run: one per [`NOMINAL_SWEEP`] of `--seconds`, at least
/// one, so every run of a given length does the same work.
fn sweeps_for(args: &Args) -> usize {
    ((args.seconds.as_secs_f64() / NOMINAL_SWEEP.as_secs_f64()).round() as usize).max(1)
}

/// Times `f` as a leaf span when tracing.
fn span<T>(tr: &mut Option<Tracer>, name: usize, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.leaf(name, None, f),
        None => f(),
    }
}

fn eval(setups: &Setups, point: &Point, epoch: Option<Instant>) -> PointOut {
    let mut tr = epoch.map(|e| Tracer::new(SPANS, e, SPANS_PER_POINT));
    if let Some(t) = tr.as_mut() {
        t.begin(SP_POINT, None);
    }
    let channels = setups.of(point.panel);
    let GridPoint { kappa_i, mu } = point.grid;
    let kappa = kappa_i as f64;
    let config = ProtocolConfig::new(kappa, mu).expect("valid parameters");
    let predicted_loss = (point.panel == Panel::Lossy).then(|| {
        span(&mut tr, SP_LP, || {
            let share_channels =
                testbed::share_rate_channels(channels, &config).expect("conversion");
            lp_schedule::optimal_schedule_at_max_rate(&share_channels, kappa, mu, Objective::Loss)
                .expect("feasible program")
                .loss(&share_channels)
        })
    });
    let opt_symbols = span(&mut tr, SP_RATE, || {
        testbed::optimal_symbol_rate(channels, &config).expect("valid mu")
    });
    let window = MODE.duration();
    let mut sim = span(&mut tr, SP_BUILD, || {
        let net = testbed::network_for(channels, &config);
        let session = Session::new(
            config.clone(),
            channels.len(),
            Workload::cbr(opt_symbols, window),
        )
        .expect("valid session parameters");
        Simulator::new(net, session, point.seed)
    });
    let slices = (window.as_nanos() / SLICE.as_nanos()) as usize;
    let mut slice_costs = Vec::with_capacity(slices);
    let mut delivered = 0;
    let mut until = SimTime::ZERO;
    for _ in 0..slices {
        until += SLICE;
        let t = Instant::now();
        span(&mut tr, SP_RUN, || sim.run_until(until));
        let wall = t.elapsed();
        let now = sim.app().report(window).delivered_symbols;
        slice_costs.push((wall.as_secs_f64(), now - delivered));
        delivered = now;
    }
    span(&mut tr, SP_RUN, || sim.run_until(window + TAIL));
    let report = span(&mut tr, SP_REPORT, || sim.app().report(window));
    if let Some(t) = tr.as_mut() {
        t.end();
    }
    let (optimal, actual) = match predicted_loss {
        Some(loss) => (loss, report.loss_fraction),
        None => (
            testbed::payload_bps(opt_symbols, &config),
            report.achieved_payload_bps,
        ),
    };
    PointOut {
        panel: point.panel,
        optimal,
        actual,
        report,
        events: sim.events_processed(),
        slices: slice_costs,
        tracer: tr,
    }
}

/// One sweep over the whole grid on [`WORKERS`] workers.
fn sweep_once(
    setups: &Setups,
    points: &[Point],
    epoch: Option<Instant>,
) -> (f64, Vec<Timed<PointOut>>) {
    let t = Instant::now();
    let out = sweep::map_ordered(points, WORKERS, |p| eval(setups, p, epoch));
    (t.elapsed().as_secs_f64(), out)
}

/// Totals over one sweep.
#[derive(Debug, Default, Clone, Copy)]
struct SweepTotals {
    sent: u64,
    delivered: u64,
    events: u64,
    point_ms: f64,
}

fn totals(rows: &[Timed<PointOut>]) -> SweepTotals {
    let mut t = SweepTotals::default();
    for r in rows {
        let report = &r.value.report;
        t.sent += report.sent_symbols;
        t.delivered += (report.sent_symbols as f64 * (1.0 - report.loss_fraction)).round() as u64;
        t.events += r.value.events;
        t.point_ms += r.millis;
    }
    t
}

fn gates(out: &mut Outcome, rows: &[Timed<PointOut>]) {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.value.panel != Panel::Lossy)
        .map(|r| r.value.actual / r.value.optimal)
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    out.gate(
        "fig3 mean achieved/optimal >= 0.97",
        mean >= FIG3_MIN_MEAN_RATIO,
        format!("{mean:.4} over {} points", ratios.len()),
    );
    let lossy: Vec<&PointOut> = rows
        .iter()
        .map(|r| &r.value)
        .filter(|p| p.panel == Panel::Lossy)
        .collect();
    let non_finite = lossy
        .iter()
        .filter(|p| !(p.optimal.is_finite() && p.actual.is_finite()))
        .count();
    out.gate(
        "every fig5 row finite",
        non_finite == 0 && !lossy.is_empty(),
        format!("{non_finite} of {} rows non-finite", lossy.len()),
    );
    gate_zero_counts(out, "", rows.iter().map(|r| &r.value.report), None);
}

/// Set-up: the channel sets, the grid, and the first point's simulator
/// — everything before the first simulated symbol is offered.
fn set_up(seed: u64) -> (Setups, Vec<Point>) {
    let setups = channel_sets();
    let points = grid(&setups, seed, 0);
    let first = &points[0];
    let config =
        ProtocolConfig::new(first.grid.kappa_i as f64, first.grid.mu).expect("valid parameters");
    let channels = setups.of(first.panel);
    let rate = testbed::optimal_symbol_rate(channels, &config).expect("valid mu");
    let session = Session::new(
        config.clone(),
        channels.len(),
        Workload::cbr(rate, MODE.duration()),
    )
    .expect("valid session parameters");
    let sim = Simulator::new(testbed::network_for(channels, &config), session, first.seed);
    std::hint::black_box(&sim);
    (setups, points)
}

/// Times `units` units of [`SETUP_UNIT`] set-ups each; returns the
/// mean set-up time of each unit. Only the set-ups are timed, not
/// the teardown between them; each set-up is dropped only after the
/// next one is built, so its freed memory stays in the allocator's
/// heap instead of being page-faulted in again by the next.
fn timed_setups(seed: u64, units: usize) -> Vec<f64> {
    let mut times = Vec::with_capacity(units);
    let mut built = None;
    for _ in 0..units {
        let mut unit = std::time::Duration::ZERO;
        for _ in 0..SETUP_UNIT {
            let t = Instant::now();
            let one = set_up(seed);
            unit += t.elapsed();
            built = Some(one);
        }
        times.push(unit.as_secs_f64() / SETUP_UNIT as f64);
    }
    drop(built);
    times
}

/// Timed set-up units after each sweep; `setup_s` is the median of all
/// of them. After a sweep the allocator's heap and mmap threshold have
/// settled: before the first sweep, one set-up takes about three times
/// as long, and how much longer depends on the allocator's state.
/// Spreading the units over the run lets `setup_s` see the host over
/// the whole run, as the sweep metrics do, not in one short moment.
const SETUP_UNITS_PER_SWEEP: usize = 4;
/// Set-ups summed into one timed unit: one set-up takes about ten
/// microseconds, so a unit of this many spans tens of milliseconds and
/// allocator noise averages out within it.
const SETUP_UNIT: usize = 4096;

/// The untraced run: sweeps repeat until `--seconds` has passed.
pub fn run(args: &Args, out: &mut Outcome) {
    let t = Instant::now();
    let (setups, _) = set_up(args.seed);
    let first_setup = t.elapsed();
    let n_sweeps = sweeps_for(args);
    let mut setup_times = Vec::with_capacity(n_sweeps * SETUP_UNITS_PER_SWEEP);
    let mut cpu_s = 0.0;
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut all = SweepTotals::default();
    let mut per_point = Vec::new();
    let mut delays = Vec::new();
    let mut rows = Vec::new();
    for sweep in 0..n_sweeps {
        let points = grid(&setups, args.seed, sweep);
        let cpu0 = procfs::process_cpu().unwrap_or_default();
        let (wall, swept) = sweep_once(&setups, &points, None);
        cpu_s += procfs::process_cpu()
            .unwrap_or_default()
            .since(&cpu0)
            .total_s();
        setup_times.extend(timed_setups(args.seed, SETUP_UNITS_PER_SWEEP));
        let t = totals(&swept);
        walls.push(wall);
        rates.push(t.delivered as f64 / wall);
        all.sent += t.sent;
        all.delivered += t.delivered;
        for r in &swept {
            let n = r.value.report.delivered_symbols;
            if n > 0 {
                per_point.push(r.millis * 1e3 / n as f64);
            }
            if let Some(d) = r.value.report.mean_one_way_delay {
                delays.push(d.as_secs_f64() * 1e3);
            }
        }
        rows.extend(swept);
    }
    out.note(format!(
        "first set-up, in a fresh process: {:.6} s",
        first_setup.as_secs_f64()
    ));
    out.attempted = rows.len() as u64;
    let n_sweeps = walls.len() as u64;
    out.setup_s(&mut setup_times);
    let peak = rates.iter().copied().fold(f64::NAN, f64::max);
    out.metric(
        "sym_per_s",
        median(&mut rates).unwrap_or(f64::NAN),
        "sym/s",
        n_sweeps,
    );
    let s = Summary::of(&mut per_point);
    let n = s.map_or(0, |s| s.count) as u64;
    out.metric("sym_latency_p50_us", s.map_or(f64::NAN, |s| s.p50), "us", n);
    out.metric("sym_latency_p99_us", s.map_or(f64::NAN, |s| s.p99), "us", n);
    out.metric(
        "delivered_ratio",
        all.delivered as f64 / all.sent.max(1) as f64,
        "1",
        all.sent,
    );
    out.metric(
        "cpu_us_per_sym",
        cpu_s * 1e6 / all.delivered.max(1) as f64,
        "us",
        all.delivered,
    );
    let d = Summary::of(&mut delays);
    let nd = d.map_or(0, |s| s.count) as u64;
    out.metric(
        "session_delay_p50_ms",
        d.map_or(f64::NAN, |s| s.p50),
        "ms",
        nd,
    );
    out.metric(
        "session_delay_p99_ms",
        d.map_or(f64::NAN, |s| s.p99),
        "ms",
        nd,
    );
    out.metric("peak_sym_per_s", peak, "sym/s", n_sweeps);
    out.metric(
        "sweep_s",
        median(&mut walls).unwrap_or(f64::NAN),
        "s",
        n_sweeps,
    );
    out.metric(
        "peak_rss_mb",
        procfs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
        "MiB",
        1,
    );
    gates(out, &rows);
    if let Some(d) = d {
        out.note(format!(
            "session delay tail rule: p{} = {:.4} ms over {} sessions",
            d.tail_p.unwrap_or(f64::NAN),
            d.tail.unwrap_or(f64::NAN),
            d.count
        ));
    }
    out.note(format!(
        "{n_sweeps} sweeps of {} points on {WORKERS} workers; sym_latency is wall time \
         per delivered simulated symbol, per point",
        rows.len() / walls.len().max(1)
    ));
}

/// The traced run: one untraced reference sweep, then one traced
/// sweep with a span per point and children around the LP, the
/// optimal-rate and the simulator calls.
pub fn run_traced(args: &Args, out: &mut Outcome, epoch: Instant) -> Tracer {
    let setups = channel_sets();
    let points = grid(&setups, args.seed, 0);
    let (reference_wall, reference) = sweep_once(&setups, &points, None);
    let mut tracer = Tracer::new(SPANS, epoch, points.len() * SPANS_PER_POINT + 1);
    tracer.begin(SP_SWEEP, None);
    let (wall, rows) = sweep_once(&setups, &points, Some(epoch));
    tracer.end();
    for r in &rows {
        if let Some(t) = &r.value.tracer {
            tracer.absorb(t);
        }
    }
    out.attempted = (points.len() * 2) as u64;
    gates(out, &rows);
    gates(out, &reference);
    let t = totals(&rows);
    let calls = |s: usize| tracer.agg(s).count.max(1) as f64;
    let run = tracer.agg(SP_RUN);
    out.metric(
        "netsim.events_per_s",
        t.events as f64 / (run.total_ns as f64 / 1e9),
        "1/s",
        t.events,
    );
    out.metric(
        "netsim.events_per_symbol",
        t.events as f64 / t.delivered.max(1) as f64,
        "1",
        t.delivered,
    );
    out.metric(
        "lp.solve_ms",
        tracer.agg(SP_LP).total_ns as f64 / 1e6 / calls(SP_LP),
        "ms",
        tracer.agg(SP_LP).count,
    );
    out.metric(
        "core.optimal_rate_us",
        tracer.agg(SP_RATE).total_ns as f64 / 1e3 / calls(SP_RATE),
        "us",
        tracer.agg(SP_RATE).count,
    );
    out.metric(
        "sweep.parallel_efficiency",
        t.point_ms / 1e3 / (wall * WORKERS as f64),
        "1",
        points.len() as u64,
    );
    // Warm-up check: wall time per symbol over the first and the second
    // half of every point's simulated traffic window.
    let mut halves = [(0.0f64, 0u64); 2];
    for r in &reference {
        let n = r.value.slices.len();
        for (i, &(wall, syms)) in r.value.slices.iter().enumerate() {
            let h = &mut halves[usize::from(2 * i >= n)];
            h.0 += wall;
            h.1 += syms;
        }
    }
    let [first_half, second_half] = halves.map(|(wall, n)| wall * 1e6 / n.max(1) as f64);
    out.metric("warmup.second_over_first", second_half / first_half, "1", 2);
    out.metric("trace.overhead_share", wall / reference_wall - 1.0, "1", 2);
    let point = tracer.agg(SP_POINT);
    let rows_ns: Vec<(&str, u64)> = [SP_LP, SP_RATE, SP_BUILD, SP_RUN, SP_REPORT]
        .iter()
        .map(|&s| (SPANS[s], tracer.agg(s).total_ns))
        .collect();
    let attributed: u64 = rows_ns.iter().map(|(_, ns)| ns).sum();
    out.note(format!(
        "budget over {} points, {:.3} s of point time: {}; point self time {:.3} s",
        point.count,
        point.total_ns as f64 / 1e9,
        rows_ns
            .iter()
            .map(|(n, ns)| format!("{n} {:.3} s", *ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", "),
        (point.total_ns.saturating_sub(attributed)) as f64 / 1e9
    ));
    out.note(format!(
        "reference sweep {reference_wall:.3} s, traced sweep {wall:.3} s; wall per simulated \
         symbol, first/second half of the traffic window {first_half:.3}/{second_half:.3} us"
    ));
    tracer
}
