//! `core_bulk`: the server's data path without sockets.
//!
//! A [`ShardSet`] is driven synchronously from the benchmark thread:
//! 16 external-source sessions, alternating Shamir and XOR/2D, 1250 B
//! symbols at (κ, μ) = (3, 5) over 5 channels. The loop is closed with
//! one symbol outstanding: `offer_symbol` → `drain_outbound` → an
//! in-memory wire that drops each share with 5% probability →
//! `deliver_datagram` on the owning shard → `pop_delivered`. Every
//! delivered payload is compared byte for byte, and every symbol's
//! fate is checked against the shares the wire actually dropped: a
//! symbol must be delivered exactly when at least κ of its shares
//! arrived.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcss_base::Endpoint;
use mcss_codec::CodecId;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{SessionReport, SourceMode};
use mcss_server::{ServerConfig, ShardSet, ShardStatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng as _, RngExt as _, SeedableRng as _};

use crate::alloc;
use crate::common::{mix, Args, SimClock};
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{percentile, select_percentile, tail_percentile, Summary};
use crate::trace::Tracer;

/// Sessions in the shard set.
pub const SESSIONS: u32 = 16;
/// Threshold κ.
pub const KAPPA: u8 = 3;
/// Multiplicity μ (shares per symbol).
pub const MU: u8 = 5;
/// Probability the in-memory wire drops a share.
pub const SHARE_LOSS: f64 = 0.05;
/// The `core_bulk` fleet.
pub const SPEC: Spec = Spec {
    sessions: SESSIONS,
    kappa: KAPPA,
    mu: MU,
    symbol_bytes: ProtocolConfig::DEFAULT_SYMBOL_BYTES,
    codecs: &[CodecId::Shamir, CodecId::Xor2d],
    share_loss: SHARE_LOSS,
    poll_every: 256,
};
const CHANNELS: usize = 5;
const SHARDS: usize = 2;
/// Distinct payloads drawn from the seed; symbols pick among them.
const PAYLOADS: usize = 64;
/// Symbols between clock reads that check a window's end and slices.
const CHECK_EVERY: u64 = 256;
/// Parts the measured window is cut into; a batch of
/// [`SETUP_UNITS_PER_PART`] timed set-up units follows each part, and
/// `setup_s` is the median of all of them. The units then see the host
/// over the whole run, as the window's metrics do, not in one short
/// moment; and they run with the allocator settled: in a fresh
/// process, set-up times fall by a quarter over the first few hundred
/// set-ups, so a median taken there would depend on how far that
/// settling had got.
const PARTS: u32 = 5;
/// Timed set-up units after each part of the measured window.
const SETUP_UNITS_PER_PART: usize = 3;
/// Set-ups summed into one timed unit: one set-up takes a fraction of
/// a millisecond, so a unit of this many spans tens of milliseconds
/// and allocator noise averages out within it.
const SETUP_UNIT: usize = 256;
/// Plain traffic right after set-up, before anything is warm.
pub const COLD: Duration = Duration::from_secs(2);
/// Plain traffic after [`COLD`] whose allocations the traced run
/// reports (`alloc.lazy_per_ksym`): growth the workload still causes
/// on its own once the first burst of pool filling is over.
pub const LAZY: Duration = Duration::from_secs(8);
/// Traffic at the end of the warm-up, after the fast-forward.
const WARMUP: Duration = Duration::from_millis(1200);
/// Symbols per session left incomplete during warm-up (only two of
/// five shares delivered), so the reassembly tables' pools, maps and
/// scratch lists grow to a high-water mark well above what 5% share
/// loss reaches (about ten pending symbols per session).
const BURST_PER_SESSION: u64 = 64;
/// Warm-up traffic with timers held back: the reassembly tables'
/// resolution records and insertion-order rings, whose size is
/// proportional to the symbol rate, grow to twice the steady
/// horizon's worth, above what any measured window reaches.
const HOLD: Duration = Duration::from_millis(2000);
/// The shard timer wheel allocates a level bucket the first time its
/// cursor reaches it; its five lower levels span 2^42 ns (about 73
/// minutes). Warm-up fast-forwards protocol time through one whole
/// span, polling as it goes, so every bucket the measured window can
/// reach has been touched once.
const WHEEL_SPAN: Duration = Duration::from_nanos(1 << 42);
/// Protocol-time step of the fast-forward.
const FAST_FORWARD_STEP: Duration = Duration::from_millis(50);
/// Symbols in one fixed batch (`sweep_s` is the mean batch time).
const BATCH: u64 = 100_000;
/// Slice length for `peak_sym_per_s` and the latency percentiles.
const SLICE: Duration = Duration::from_millis(500);
/// Upper bound on symbols per second when reserving sample storage.
const MAX_RATE: f64 = 600_000.0;

/// Span names of the traced loop.
pub static SPANS: &[&str] = &[
    "symbol",
    "server.offer_symbol",
    "server.drain_outbound",
    "server.deliver_datagram",
    "server.pop_delivered",
    "server.poll",
];
/// Root span of one symbol, `offer_symbol` through `pop_delivered`.
pub const SP_SYMBOL: usize = 0;
/// `ShardSet::offer_symbol`.
pub const SP_OFFER: usize = 1;
/// `Shard::drain_outbound`, including the copy onto the in-memory wire.
pub const SP_DRAIN: usize = 2;
/// Every `ShardSet::deliver_datagram` of one symbol.
pub const SP_DELIVER: usize = 3;
/// `Shard::pop_delivered`.
pub const SP_POP: usize = 4;
/// `ShardSet::poll` (its own root span).
pub const SP_POLL: usize = 5;

/// The codec session `cid` of the `core_bulk` fleet encodes with.
#[must_use]
pub fn codec_of(cid: u32) -> CodecId {
    SPEC.codec_of(cid)
}

/// The fleet a [`Rig`] drives and the loss of its in-memory wire.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Sessions in the shard set.
    pub sessions: u32,
    /// Threshold κ.
    pub kappa: u8,
    /// Multiplicity μ (shares per symbol, at most 8).
    pub mu: u8,
    /// Symbol size.
    pub symbol_bytes: usize,
    /// Session `cid` encodes with `codecs[cid % codecs.len()]`.
    pub codecs: &'static [CodecId],
    /// Probability the in-memory wire drops a share.
    pub share_loss: f64,
    /// Symbols between `ShardSet::poll` calls (fires the sessions'
    /// sweep timers, which evict incomplete symbols).
    pub poll_every: u64,
}

impl Spec {
    /// The codec session `cid` encodes with.
    #[must_use]
    pub fn codec_of(&self, cid: u32) -> CodecId {
        self.codecs[cid as usize % self.codecs.len()]
    }

    /// The protocol configuration of a session encoding with `codec`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol rejects (κ, μ).
    #[must_use]
    pub fn protocol(&self, codec: CodecId) -> ProtocolConfig {
        ProtocolConfig::new(f64::from(self.kappa), f64::from(self.mu))
            .expect("valid (κ, μ)")
            .with_symbol_bytes(self.symbol_bytes)
            .with_codec(codec)
    }
}

/// When a [`Rig::window`] ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this much wall time (checked every [`CHECK_EVERY`] symbols).
    Wall(Duration),
    /// After this many symbols.
    Symbols(u64),
}

/// One symbol of the loop, as replayed by the layer replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolLog {
    /// Session.
    pub cid: u32,
    /// The session's sequence number.
    pub seq: u64,
    /// Index into the payload table.
    pub payload: u16,
    /// Bit `j` set: share `j` was dropped by the wire.
    pub dropped: u8,
}

/// The shard set plus the benchmark's side of the loop.
pub struct Rig {
    spec: Spec,
    /// The system under test.
    pub set: ShardSet,
    /// Payload table drawn from the seed.
    pub payloads: Vec<Vec<u8>>,
    next_seq: Vec<u64>,
    rng: StdRng,
    wire: Vec<Vec<u8>>,
    wire_meta: Vec<(usize, Endpoint)>,
    clock: SimClock,
    cursor: u32,
    /// While set, the wire drops shares 3..μ of every symbol.
    burst: bool,
    /// While cleared, the loop does not call `ShardSet::poll`.
    polling: bool,
    /// Latencies of the current slice, ns. Reserved once for one slice
    /// at [`MAX_RATE`], so sample storage neither allocates in the
    /// loop nor grows with throughput.
    slice_latencies: Vec<u32>,
    /// Symbols recorded for the layer replay (up to its capacity).
    pub log: Vec<SymbolLog>,
}

/// Counts over one window of the loop.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of the window.
    pub wall: Duration,
    /// Symbols offered.
    pub attempted: u64,
    /// Symbols delivered.
    pub delivered: u64,
    /// Datagrams delivered to the shard set.
    pub datagrams: u64,
    /// Symbols whose outcome or payload was wrong.
    pub failed: u64,
    /// Allocations made by the loop's thread.
    pub allocations: u64,
    cpu_s: f64,
    latency_samples: u64,
    batch_s: Vec<f64>,
    slice_rates: Vec<f64>,
    /// Nearest-rank p50 and p99 latency of each slice, µs.
    slice_p50_us: Vec<f64>,
    slice_p99_us: Vec<f64>,
    /// First slice: sample count, tail-rule percentile and its value
    /// in µs.
    first_tail: Option<(usize, f64, f64)>,
}

impl Window {
    /// Adds `other`, a later window of the same loop, to this one.
    fn absorb(&mut self, other: Window) {
        self.wall += other.wall;
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.datagrams += other.datagrams;
        self.failed += other.failed;
        self.allocations += other.allocations;
        self.cpu_s += other.cpu_s;
        self.latency_samples += other.latency_samples;
        self.batch_s.extend(other.batch_s);
        self.slice_rates.extend(other.slice_rates);
        self.slice_p50_us.extend(other.slice_p50_us);
        self.slice_p99_us.extend(other.slice_p99_us);
        self.first_tail = self.first_tail.or(other.first_tail);
    }
}

impl Rig {
    /// Builds the shard set, registers and starts the sessions, and
    /// draws the payloads — everything before the first offered
    /// symbol.
    ///
    /// # Panics
    ///
    /// Panics if the protocol rejects the spec's parameters.
    #[must_use]
    pub fn build(seed: u64, spec: Spec) -> Rig {
        let clock = SimClock::new();
        let mut set = ShardSet::new(&ServerConfig::with_shards(SHARDS));
        let configs: Vec<Arc<ProtocolConfig>> = spec
            .codecs
            .iter()
            .map(|&codec| Arc::new(spec.protocol(codec)))
            .collect();
        let now = clock.at(Instant::now());
        for cid in 0..spec.sessions {
            set.add_session(
                cid,
                Arc::clone(&configs[cid as usize % configs.len()]),
                CHANNELS,
                SourceMode::External,
                mix(seed, 100 + u64::from(cid)),
            )
            .expect("session registers");
            set.start(now, cid);
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let payloads = (0..PAYLOADS)
            .map(|_| {
                let mut p = vec![0u8; spec.symbol_bytes];
                rng.fill_bytes(&mut p);
                p
            })
            .collect();
        let wire_bytes = configs[0].share_wire_bytes() + 64;
        let mu = usize::from(spec.mu);
        Rig {
            spec,
            set,
            payloads,
            next_seq: vec![0; spec.sessions as usize],
            rng,
            wire: (0..mu).map(|_| Vec::with_capacity(wire_bytes)).collect(),
            wire_meta: vec![(0, Endpoint::A); mu],
            clock,
            cursor: 0,
            burst: false,
            polling: true,
            slice_latencies: Vec::with_capacity((SLICE.as_secs_f64() * MAX_RATE) as usize),
            log: Vec::new(),
        }
    }

    /// Moves one symbol through the loop. Returns
    /// `(delivered, outcome_correct, latency, datagrams_delivered)`.
    fn step(&mut self, mut tr: Option<&mut Tracer>) -> (bool, bool, Duration, u32) {
        let Spec {
            sessions,
            kappa,
            mu,
            share_loss,
            ..
        } = self.spec;
        let cid = self.cursor;
        self.cursor = (cid + 1) % sessions;
        let p = (self.rng.next_u64() % PAYLOADS as u64) as usize;
        let seq = self.next_seq[cid as usize];
        self.next_seq[cid as usize] += 1;
        let key = Some((cid, seq));
        let owner = self.set.shard_of(cid);
        // The wire's fate for each share is drawn up front, so the timed
        // part of the step holds nothing but calls into the shard set.
        let mut dropped = 0u8;
        for j in 0..mu {
            if self.rng.random_bool(share_loss) || (self.burst && j >= 2) {
                dropped |= 1 << j;
            }
        }

        let t0 = Instant::now();
        if let Some(t) = tr.as_deref_mut() {
            let ts = t.ns_at(t0);
            t.begin_at(SP_SYMBOL, key, ts);
            t.begin_at(SP_OFFER, key, ts);
        }
        self.set
            .offer_symbol(self.clock.at(t0), cid, &self.payloads[p]);

        mark(&mut tr, SP_DRAIN, key, None);
        let (wire, meta) = (&mut self.wire, &mut self.wire_meta);
        let mut n = 0;
        self.set.shard_mut(owner).drain_outbound(|d| {
            if let (Some(buf), Some(slot)) = (wire.get_mut(n), meta.get_mut(n)) {
                buf.clear();
                buf.extend_from_slice(&d.bytes);
                *slot = (d.channel, d.from);
            }
            n += 1;
        });

        let t_rx = Instant::now();
        mark(&mut tr, SP_DELIVER, key, Some(t_rx));
        let now_rx = self.clock.at(t_rx);
        for j in 0..n.min(self.wire.len()) {
            if dropped & (1 << j) == 0 {
                let (channel, from) = self.wire_meta[j];
                self.set
                    .deliver_datagram(now_rx, channel, from.peer(), &self.wire[j], owner);
            }
        }

        mark(&mut tr, SP_POP, key, None);
        let popped = self.set.shard_mut(owner).pop_delivered(cid);
        let t1 = Instant::now();
        if let Some(t) = tr {
            let ts = t.ns_at(t1);
            t.end_at(ts);
            t.end_at(ts);
        }

        let arrived = (0..n.min(8)).filter(|j| dropped & (1 << j) == 0).count() as u32;
        let ok_shape = n == usize::from(mu);
        let (delivered, ok) = match popped {
            Some((got_seq, data)) => {
                let good = got_seq == seq && data == self.payloads[p];
                self.set.shard_mut(owner).recycle_delivered(cid, data);
                (true, good && arrived >= u32::from(kappa))
            }
            None => (false, arrived < u32::from(kappa)),
        };
        if self.log.len() < self.log.capacity() {
            self.log.push(SymbolLog {
                cid,
                seq,
                payload: p as u16,
                dropped,
            });
        }
        (delivered, ok && ok_shape, t1 - t0, arrived)
    }

    /// Brings the rig to steady state: a burst of incomplete symbols,
    /// traffic with timers held back, a fast-forward through one
    /// timer-wheel span, traffic again.
    fn warm_up(&mut self) {
        self.burst = true;
        for _ in 0..BURST_PER_SESSION * u64::from(self.spec.sessions) {
            self.step(None);
        }
        self.burst = false;
        self.polling = false;
        let _ = self.window(Until::Wall(HOLD), None);
        self.polling = true;
        let steps = WHEEL_SPAN.as_nanos() / FAST_FORWARD_STEP.as_nanos() + 1;
        for _ in 0..steps {
            self.clock.skip(FAST_FORWARD_STEP);
            self.poll(None);
        }
        let _ = self.window(Until::Wall(WARMUP), None);
    }

    /// Calls `ShardSet::poll` at the current protocol time.
    pub fn poll(&mut self, tr: Option<&mut Tracer>) {
        let now = self.clock.at(Instant::now());
        match tr {
            Some(t) => t.leaf(SP_POLL, None, || self.set.poll(now)),
            None => self.set.poll(now),
        }
    }

    /// Closes the current latency slice: records its delivered rate
    /// and latency percentiles and empties the slice buffer.
    fn close_slice(&mut self, w: &mut Window, rate: f64) {
        if w.slice_rates.len() < w.slice_rates.capacity() {
            w.slice_rates.push(rate);
            let lat = &mut self.slice_latencies[..];
            if let (Some(p50), Some(p99)) =
                (select_percentile(lat, 50.0), select_percentile(lat, 99.0))
            {
                w.slice_p50_us.push(f64::from(p50) / 1e3);
                w.slice_p99_us.push(f64::from(p99) / 1e3);
                if w.first_tail.is_none() {
                    let n = lat.len();
                    w.first_tail = tail_percentile(n).and_then(|p| {
                        select_percentile(lat, p).map(|v| (n, p, f64::from(v) / 1e3))
                    });
                }
            }
        }
        self.slice_latencies.clear();
    }

    /// Runs the loop until `until`, counting allocations on this
    /// thread.
    pub fn window(&mut self, until: Until, mut tr: Option<&mut Tracer>) -> Window {
        let wall = match until {
            Until::Wall(d) => d,
            Until::Symbols(_) => Duration::ZERO,
        };
        let slices = (wall.as_secs_f64() / SLICE.as_secs_f64()) as usize + 2;
        let mut w = Window {
            batch_s: Vec::with_capacity(
                (wall.as_secs_f64() * MAX_RATE) as usize / BATCH as usize + 1,
            ),
            slice_rates: Vec::with_capacity(slices),
            slice_p50_us: Vec::with_capacity(slices),
            slice_p99_us: Vec::with_capacity(slices),
            ..Window::default()
        };
        self.slice_latencies.clear();
        let cpu0 = procfs::process_cpu().unwrap_or_default();
        let start = Instant::now();
        let mut batch_start = start;
        let mut slice_start = (start, 0u64);
        alloc::count_here(true);
        let allocs0 = alloc::allocations();
        loop {
            let (delivered, ok, latency, datagrams) = self.step(tr.as_deref_mut());
            w.attempted += 1;
            w.datagrams += u64::from(datagrams);
            w.delivered += u64::from(delivered);
            w.failed += u64::from(!ok);
            if self.slice_latencies.len() < self.slice_latencies.capacity() {
                self.slice_latencies
                    .push(latency.as_nanos().min(u128::from(u32::MAX)) as u32);
                w.latency_samples += 1;
            }
            if self.polling && w.attempted.is_multiple_of(self.spec.poll_every) {
                self.poll(tr.as_deref_mut());
            }
            if let Until::Symbols(n) = until {
                if w.attempted >= n {
                    w.wall = start.elapsed();
                    break;
                }
            } else if w.attempted.is_multiple_of(CHECK_EVERY) {
                let now = Instant::now();
                let elapsed = now - start;
                if now - slice_start.0 >= SLICE {
                    let rate =
                        (w.delivered - slice_start.1) as f64 / (now - slice_start.0).as_secs_f64();
                    self.close_slice(&mut w, rate);
                    // The slice starts after its percentiles are taken.
                    slice_start = (Instant::now(), w.delivered);
                }
                if elapsed >= wall {
                    w.wall = elapsed;
                    break;
                }
            }
            if w.attempted.is_multiple_of(BATCH) {
                let now = Instant::now();
                if w.batch_s.len() < w.batch_s.capacity() {
                    w.batch_s.push((now - batch_start).as_secs_f64());
                }
                batch_start = now;
            }
        }
        w.allocations = alloc::allocations() - allocs0;
        alloc::count_here(false);
        w.cpu_s = procfs::process_cpu()
            .unwrap_or_default()
            .since(&cpu0)
            .total_s();
        w
    }

    /// Every session's report after the run.
    #[must_use]
    pub fn reports(&self) -> Vec<SessionReport> {
        let window = self.clock.at(Instant::now());
        (0..self.spec.sessions)
            .map(|cid| self.set.report(cid, window))
            .collect()
    }
}

/// Ends the innermost open span and opens `next` at one shared
/// timestamp (`at`, or a fresh clock read).
fn mark(tr: &mut Option<&mut Tracer>, next: usize, key: Option<(u32, u64)>, at: Option<Instant>) {
    if let Some(t) = tr.as_deref_mut() {
        let ts = at.map_or_else(|| t.now_ns(), |i| t.ns_at(i));
        t.end_at(ts);
        t.begin_at(next, key, ts);
    }
}

/// Arithmetic mean (NaN when empty).
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Probability that at least κ of μ shares survive independent
/// per-share loss `loss`.
#[must_use]
pub fn binomial_delivery(kappa: u8, mu: u8, loss: f64) -> f64 {
    let (k, m) = (u32::from(kappa), u32::from(mu));
    (k..=m)
        .map(|i| {
            let choose = (0..i).fold(1.0, |acc, j| acc * f64::from(m - j) / f64::from(j + 1));
            choose * (1.0 - loss).powi(i as i32) * loss.powi((m - i) as i32)
        })
        .sum()
}

/// Symbols a session eventually delivered, recovered from its report
/// (`loss_fraction` is `1 − delivered_total / sent`).
#[must_use]
pub fn eventually_delivered(r: &SessionReport) -> u64 {
    (r.sent_symbols as f64 * (1.0 - r.loss_fraction)).round() as u64
}

/// Eventually delivered ÷ sent between two report snapshots of the
/// same sessions (`before` may be empty: counts from session start),
/// summed over sessions. Per-session delivered counts never exceed
/// sent counts, so the ratio cannot exceed 1. Returns
/// `(ratio, delivered, sent)`.
#[must_use]
pub fn delivery_ratio(before: &[SessionReport], after: &[SessionReport]) -> (f64, u64, u64) {
    let mut sent = 0u64;
    let mut delivered = 0u64;
    for (i, r) in after.iter().enumerate() {
        let (s0, d0) = before
            .get(i)
            .map_or((0, 0), |b| (b.sent_symbols, eventually_delivered(b)));
        sent += r.sent_symbols - s0;
        delivered += eventually_delivered(r) - d0;
    }
    (delivered as f64 / sent.max(1) as f64, delivered, sent)
}

/// Gates on counts that must be zero: corrupted symbols and wire
/// errors from session reports, and the shard layer's drop counters
/// when given. Gate names carry `prefix`.
pub fn gate_zero_counts<'a>(
    out: &mut Outcome,
    prefix: &str,
    reports: impl IntoIterator<Item = &'a SessionReport>,
    totals: Option<&ShardStatsSnapshot>,
) {
    let (mut corrupted, mut wire_errors) = (0, 0);
    for r in reports {
        corrupted += r.corrupted_symbols;
        wire_errors += r.wire_errors;
    }
    let mut counts = vec![
        ("corrupted_symbols", corrupted),
        ("wire_errors", wire_errors),
    ];
    if let Some(t) = totals {
        counts.extend([
            ("dropped_malformed", t.dropped_malformed),
            ("dropped_bad_frame", t.dropped_bad_frame),
            ("dropped_unknown_cid", t.dropped_unknown_cid),
            ("dropped_unknown_codec", t.dropped_unknown_codec),
        ]);
    }
    for (name, count) in counts {
        out.gate(
            format!("{prefix}{name}"),
            count == 0,
            format!("{count} (must be 0)"),
        );
    }
}

fn session_delays_ms(reports: &[SessionReport]) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| r.mean_one_way_delay)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

/// Times `units` units of [`SETUP_UNIT`] set-ups each; returns the mean
/// set-up time of each unit. Only the set-ups are timed, not
/// the teardown of the rigs between them.
/// Each rig is dropped only after the next one is built, so the memory
/// it frees stays in the allocator's heap: dropping it first lets the
/// allocator hand the top of the heap back to the system, and every
/// set-up would then page-fault its memory in again (about 4x the
/// time, and as noisy as the kernel's page-fault path).
fn setup_units(seed: u64, units: usize) -> Vec<f64> {
    let mut times = Vec::with_capacity(units);
    let mut rig = None;
    for _ in 0..units {
        let mut unit = Duration::ZERO;
        for _ in 0..SETUP_UNIT {
            let t = Instant::now();
            let built = Rig::build(seed, SPEC);
            unit += t.elapsed();
            rig = Some(built);
        }
        times.push(unit.as_secs_f64() / SETUP_UNIT as f64);
    }
    drop(rig);
    times
}

/// The untraced run: end-to-end metrics and correctness gates.
pub fn run(args: &Args, out: &mut Outcome) {
    let t = Instant::now();
    let mut rig = Rig::build(args.seed, SPEC);
    let first_setup = t.elapsed();
    let cold = rig.window(Until::Wall(COLD), None);
    rig.warm_up();
    let before = rig.reports();
    let mut w = Window::default();
    let mut setups = Vec::with_capacity(PARTS as usize * SETUP_UNITS_PER_PART);
    let mut peak_rss = None;
    for _ in 0..PARTS {
        w.absorb(rig.window(Until::Wall(args.seconds / PARTS), None));
        // Read before the first timed set-ups, whose extra rigs are
        // the benchmark's, not the workload's. The workload's own
        // memory no longer grows: the measured window must not
        // allocate (a gate below).
        peak_rss = peak_rss.or_else(procfs::peak_rss_bytes);
        setups.extend(setup_units(args.seed, SETUP_UNITS_PER_PART));
    }
    let reports = rig.reports();
    report_end_to_end(out, &rig, &w, &before, &reports, &mut setups, peak_rss);
    out.note(format!(
        "first set-up, in a fresh process: {:.6} s",
        first_setup.as_secs_f64()
    ));
    out.note(format!(
        "allocations in the first {:.0} s of traffic: {} over {} symbols",
        COLD.as_secs_f64(),
        cold.allocations,
        cold.attempted
    ));
}

fn report_end_to_end(
    out: &mut Outcome,
    rig: &Rig,
    w: &Window,
    before: &[SessionReport],
    reports: &[SessionReport],
    setups: &mut [f64],
    peak_rss: Option<u64>,
) {
    out.attempted = w.attempted;
    out.failed = w.failed;
    out.setup_s(setups);
    out.metric(
        "sym_per_s",
        w.delivered as f64 / w.wall.as_secs_f64(),
        "sym/s",
        w.delivered,
    );
    // Latency percentiles are taken per 0.5 s slice and averaged over
    // the slices. Half the symbols are Shamir and half XOR/2D, so the
    // median sits in the gap between the two codecs' latencies and a
    // slice's median lands on either side of it; the mean over slices
    // moves smoothly with the share of slices on each side, where a
    // median of slices would jump from one side to the other.
    let n = w.latency_samples;
    out.metric("sym_latency_p50_us", mean(&w.slice_p50_us), "us", n);
    out.metric("sym_latency_p99_us", mean(&w.slice_p99_us), "us", n);
    if let Some((count, p, value)) = w.first_tail {
        out.note(format!(
            "sym_latency: mean over {} slices of {:.1} s; first slice: {count} samples, \
             tail rule allows p{p} = {value:.3} us",
            w.slice_p50_us.len(),
            SLICE.as_secs_f64(),
        ));
    }
    let (ratio, delivered, sent) = delivery_ratio(before, reports);
    out.metric("delivered_ratio", ratio, "1", sent);
    out.metric(
        "cpu_us_per_sym",
        w.cpu_s * 1e6 / w.delivered.max(1) as f64,
        "us",
        w.delivered,
    );
    let mut delays = session_delays_ms(reports);
    let delays = Summary::of(&mut delays);
    let n_sessions = delays.map_or(0, |s| s.count) as u64;
    out.metric(
        "session_delay_p50_ms",
        delays.map_or(f64::NAN, |s| s.p50),
        "ms",
        n_sessions,
    );
    out.metric(
        "session_delay_p99_ms",
        delays.map_or(f64::NAN, |s| s.p99),
        "ms",
        n_sessions,
    );
    // The peak is the 90th percentile of the slice rates: a single
    // maximum would rest on one slice.
    let mut slices = w.slice_rates.clone();
    slices.sort_by(f64::total_cmp);
    out.metric(
        "peak_sym_per_s",
        percentile(&slices, 90.0).unwrap_or(f64::NAN),
        "sym/s",
        slices.len() as u64,
    );
    // The mean, not the median, of the batch times: as with the
    // latency slices, batch times cluster around a fast and a slow
    // host state, and a median jumps between the two from run to run.
    out.metric("sweep_s", mean(&w.batch_s), "s", w.batch_s.len() as u64);
    out.metric(
        "peak_rss_mb",
        peak_rss.map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
        "MiB",
        1,
    );

    // Gates.
    out.gate(
        "payloads byte-exact and delivered iff >= kappa shares arrived",
        w.failed == 0,
        format!("{} of {} symbols wrong", w.failed, w.attempted),
    );
    let expect = binomial_delivery(KAPPA, MU, SHARE_LOSS);
    let sigma = (expect * (1.0 - expect) / sent.max(1) as f64).sqrt();
    let tolerance = (6.0 * sigma).max(2e-4);
    out.gate(
        "delivered_ratio matches the binomial model",
        (ratio - expect).abs() <= tolerance,
        format!(
            "{ratio:.6} ({delivered}/{sent}) vs {expect:.6} +- {tolerance:.6} \
             (6 sigma, at least 2e-4)"
        ),
    );
    out.gate(
        "alloc.per_symbol == 0",
        w.allocations == 0,
        format!("{} allocations over {} symbols", w.allocations, w.attempted),
    );
    gate_zero_counts(out, "", reports, Some(&rig.set.totals()));
    out.note(format!(
        "window {:.3} s: {} symbols attempted, {} delivered",
        w.wall.as_secs_f64(),
        w.attempted,
        w.delivered
    ));
}

/// What the traced run hands the layer metrics.
pub struct Traced {
    /// The rig after the run (its log holds traced symbols).
    pub rig: Rig,
    /// The span recorder of the traced chunks.
    pub tracer: Tracer,
    /// Untraced chunks: ns of wall time per delivered symbol.
    pub untraced_ns_per_sym: f64,
    /// Traced chunks: ns of wall time per attempted symbol.
    pub traced_ns_per_sym: f64,
    /// Symbols attempted in traced chunks.
    pub traced_symbols: u64,
    /// Datagrams delivered in traced chunks.
    pub traced_datagrams: u64,
    /// Allocations counted over all chunks.
    pub allocations: u64,
    /// Symbols attempted over all chunks.
    pub symbols: u64,
    /// Wrong symbols over all chunks.
    pub failed: u64,
    /// Delivered rate of the first and second half of the run.
    pub half_rates: [f64; 2],
    /// The plain-traffic window [`LAZY`] after [`COLD`], before the
    /// warm-up.
    pub lazy: Window,
    /// Session reports before and after the chunks.
    pub reports: [Vec<SessionReport>; 2],
    /// Shard counters before and after the chunks.
    pub totals: [ShardStatsSnapshot; 2],
}

/// Length of one traced or untraced chunk; they alternate so both see
/// the same host conditions.
const CHUNK: Duration = Duration::from_millis(250);
/// Symbols the layer replay repeats at most.
const LOG_CAP: usize = 300_000;

/// The traced run's data-path part: untraced and traced chunks
/// alternate for `--seconds`; traced chunks log their symbols for the
/// layer replay.
pub fn run_traced(args: &Args, epoch: Instant, span_cap: usize) -> Traced {
    let mut rig = Rig::build(args.seed, SPEC);
    let _ = rig.window(Until::Wall(COLD), None);
    let lazy = rig.window(Until::Wall(LAZY), None);
    rig.warm_up();
    let mut tracer = Tracer::new(SPANS, epoch, span_cap);
    rig.log = Vec::with_capacity(LOG_CAP);
    let reports0 = rig.reports();
    let totals0 = rig.set.totals();
    let mut plain = Window::default();
    let mut traced = Window::default();
    let mut halves = [(0u64, 0.0f64); 2];
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let half = usize::from(start.elapsed() >= args.seconds / 2);
        let a = rig.window(Until::Wall(CHUNK), None);
        halves[half].0 += a.delivered;
        halves[half].1 += a.wall.as_secs_f64();
        plain.absorb(a);
        traced.absorb(rig.window(Until::Wall(CHUNK), Some(&mut tracer)));
    }
    Traced {
        untraced_ns_per_sym: plain.wall.as_secs_f64() * 1e9 / plain.delivered.max(1) as f64,
        traced_ns_per_sym: traced.wall.as_secs_f64() * 1e9 / traced.attempted.max(1) as f64,
        traced_symbols: traced.attempted,
        traced_datagrams: traced.datagrams,
        allocations: plain.allocations + traced.allocations,
        symbols: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        half_rates: halves.map(|(n, s)| n as f64 / s),
        lazy,
        reports: [reports0, rig.reports()],
        totals: [totals0, rig.set.totals()],
        rig,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_model_at_five_percent() {
        let p = binomial_delivery(3, 5, 0.05);
        assert!((p - 0.998_842).abs() < 1e-6, "{p}");
        assert_eq!(binomial_delivery(3, 5, 0.0), 1.0);
        assert!((binomial_delivery(1, 1, 0.25) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn short_loop_is_correct() {
        let mut rig = Rig::build(3, SPEC);
        let w = rig.window(Until::Wall(Duration::from_millis(200)), None);
        assert!(w.attempted > 1_000);
        assert_eq!(w.failed, 0);
        let (ratio, _, sent) = delivery_ratio(&[], &rig.reports());
        assert!(sent >= w.attempted);
        assert!(ratio <= 1.0 && ratio > 0.99);
    }

    #[test]
    fn lossless_symbol_bounded_window_delivers_everything() {
        let spec = Spec {
            sessions: 40,
            kappa: 2,
            mu: 3,
            symbol_bytes: 64,
            codecs: &[CodecId::Shamir],
            share_loss: 0.0,
            poll_every: 40,
        };
        let mut rig = Rig::build(5, spec);
        let w = rig.window(Until::Symbols(120), None);
        assert_eq!((w.attempted, w.delivered, w.failed), (120, 120, 0));
        assert_eq!(w.datagrams, 360);
    }
}
