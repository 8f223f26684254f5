//! Per-session protocol metrics.
//!
//! [`SessionMetrics`] is the session-scoped companion to the global
//! [`mcss_obs`] span registry: while spans time *code* (split kernels,
//! the event loop), these count and time *protocol* behavior — shares
//! sent, dropped, and received per channel, one-way share delay and
//! inter-share gap distributions, reassembly residency, and the
//! realized `(k, m)` frequency matrix the dynamic scheduler actually
//! drew (whose empirical means must converge to the configured `κ` and
//! `μ`; see `tests/metrics_stat.rs`).
//!
//! The metrics come in two parts with different owners:
//!
//! * **Counters** ([`SessionMetrics`] itself) — per-channel share
//!   counts, the `(k, m)` matrix, the last delivery time per channel.
//!   A few hundred bytes, always owned by the session.
//! * **Distributions** ([`ShareHistograms`]) — per-channel one-way
//!   delay and inter-share gap, plus reassembly residency. Each
//!   histogram is ~15 KB of preallocated buckets, so a set over five
//!   channels is ~170 KB. A session records into its set through an
//!   [`Arc`]: a lone session owns a private set, while a server shard
//!   hands one set to every session it owns, keeping per-session
//!   memory at the counters and the recording work on a few cache-hot
//!   sets.
//!
//! Everything here is built from [`mcss_obs`] primitives, so the whole
//! structure inherits the crate's overhead contract: recording is
//! relaxed atomics on storage preallocated at session build (the
//! zero-allocation steady-state proof holds with telemetry enabled),
//! and with the `telemetry` feature off every field is a zero-sized
//! no-op.

use std::sync::Arc;

use mcss_obs::{Counter, Histogram, MetricsSnapshot};

/// Sentinel for "no share received on this channel yet".
const NO_RX: u64 = u64::MAX;

/// One channel's share traffic counters.
#[derive(Debug, Default)]
pub struct ChannelMetrics {
    /// Share frames handed to this channel's send queue.
    pub shares_sent: Counter,
    /// Share frames rejected by this channel's full send queue.
    pub shares_dropped: Counter,
    /// Share frames delivered from this channel.
    pub shares_received: Counter,
}

/// One channel's share latency histograms.
#[derive(Debug, Default)]
pub struct ChannelHistograms {
    /// One-way share delay (send stamp to delivery), nanoseconds of
    /// simulated time.
    pub one_way_delay: Histogram,
    /// Gap between consecutive share deliveries on one session's
    /// channel, nanoseconds of simulated time.
    pub inter_share_gap: Histogram,
}

/// The share latency distributions of every session recording into
/// this set, all over the same channel count.
///
/// Shared through an [`Arc`] by whoever owns the sessions: each server
/// shard keeps one set per distinct channel count, a lone session keeps
/// its own (see the [module docs](self)).
#[derive(Debug)]
pub struct ShareHistograms {
    channels: Box<[ChannelHistograms]>,
    /// Reassembly residency of completed symbols (first share seen to
    /// reconstruction), nanoseconds of simulated time.
    pub residency: Histogram,
}

impl ShareHistograms {
    /// An empty set over `n` channels. Allocates all bucket storage up
    /// front; recording never allocates.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ShareHistograms {
            channels: (0..n).map(|_| ChannelHistograms::default()).collect(),
            residency: Histogram::new(),
        }
    }

    /// The channel count this was built for.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// One channel's histograms.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= channel_count()`.
    #[must_use]
    pub fn channel(&self, channel: usize) -> &ChannelHistograms {
        &self.channels[channel]
    }

    /// All channels' histograms, in channel order.
    #[must_use]
    pub fn channels(&self) -> &[ChannelHistograms] {
        &self.channels
    }

    /// Adds every sample of `other` into this set, channel by channel
    /// (`other` may cover fewer channels).
    ///
    /// # Panics
    ///
    /// Panics if `other` covers more channels than this set.
    pub fn merge_from(&self, other: &ShareHistograms) {
        for (mine, theirs) in self.channels[..other.channel_count()]
            .iter()
            .zip(other.channels.iter())
        {
            mine.one_way_delay.merge_from(&theirs.one_way_delay);
            mine.inter_share_gap.merge_from(&theirs.inter_share_gap);
        }
        self.residency.merge_from(&other.residency);
    }

    /// Appends the non-empty histograms onto `snapshot` as
    /// `{prefix}.delay.ch{c}`, `{prefix}.inter_share_gap.ch{c}` and
    /// `{prefix}.reassembly.residency`. Appends nothing with the
    /// `telemetry` feature off.
    pub fn extend_snapshot(&self, prefix: &str, snapshot: &mut MetricsSnapshot) {
        use mcss_obs::HistogramSnapshot;
        for (i, ch) in self.channels.iter().enumerate() {
            for (what, hist) in [
                ("delay", &ch.one_way_delay),
                ("inter_share_gap", &ch.inter_share_gap),
            ] {
                if !hist.is_empty() {
                    snapshot.histograms.push(HistogramSnapshot::of(
                        &format!("{prefix}.{what}.ch{i}"),
                        hist,
                    ));
                }
            }
        }
        if !self.residency.is_empty() {
            snapshot.histograms.push(HistogramSnapshot::of(
                &format!("{prefix}.reassembly.residency"),
                &self.residency,
            ));
        }
    }
}

/// Protocol counters for one [`Session`](crate::Session), plus the
/// handle of the [`ShareHistograms`] it records distributions into.
///
/// The session records into this on its hot paths; benchmarks and
/// binaries read it back through accessors or [`snapshot`]
/// (`SessionMetrics::snapshot`).
#[derive(Debug)]
pub struct SessionMetrics {
    n: usize,
    channels: Vec<ChannelMetrics>,
    /// Simulated time of the previous delivery per channel ([`NO_RX`]
    /// before the first).
    last_rx_nanos: Vec<u64>,
    /// Realized `(k, m)` draw counts, indexed `k * (n + 1) + m`.
    km: Vec<Counter>,
    /// Sum of drawn thresholds, for the empirical `κ`.
    sum_k: Counter,
    /// Sum of drawn multiplicities, for the empirical `μ`.
    sum_m: Counter,
    /// Number of scheduler draws recorded.
    choices: Counter,
    histograms: Arc<ShareHistograms>,
}

impl SessionMetrics {
    /// Metrics for a session over `n` channels, with a private
    /// [`ShareHistograms`] set. Allocates all storage up front;
    /// recording never allocates.
    #[must_use]
    pub fn new(n: usize) -> Self {
        SessionMetrics::with_histograms(Arc::new(ShareHistograms::new(n)))
    }

    /// Metrics for a session over `histograms.channel_count()`
    /// channels whose distributions go into `histograms`, shared with
    /// whatever else records there.
    #[must_use]
    pub fn with_histograms(histograms: Arc<ShareHistograms>) -> Self {
        let n = histograms.channel_count();
        SessionMetrics {
            n,
            channels: (0..n).map(|_| ChannelMetrics::default()).collect(),
            last_rx_nanos: vec![NO_RX; n],
            km: (0..(n + 1) * (n + 1)).map(|_| Counter::new()).collect(),
            sum_k: Counter::new(),
            sum_m: Counter::new(),
            choices: Counter::new(),
            histograms,
        }
    }

    /// The channel count this was built for.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.n
    }

    /// One channel's metrics.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= channel_count()`.
    #[must_use]
    pub fn channel(&self, channel: usize) -> &ChannelMetrics {
        &self.channels[channel]
    }

    /// All channels' metrics, in channel order.
    #[must_use]
    pub fn channels(&self) -> &[ChannelMetrics] {
        &self.channels
    }

    /// The distribution set this session records into: its own, or
    /// its owner's when shared.
    #[must_use]
    pub fn histograms(&self) -> &Arc<ShareHistograms> {
        &self.histograms
    }

    /// Records one scheduler draw of threshold `k` over `m` channels.
    pub fn record_choice(&mut self, k: u8, m: usize) {
        let (k, m) = (k as usize, m);
        if k <= self.n && m <= self.n {
            self.km[k * (self.n + 1) + m].inc();
        }
        self.sum_k.add(k as u64);
        self.sum_m.add(m as u64);
        self.choices.inc();
    }

    /// Records a share frame accepted by `channel`'s send queue.
    pub fn record_send(&mut self, channel: usize) {
        self.channels[channel].shares_sent.inc();
    }

    /// Records a share frame rejected by `channel`'s full send queue.
    pub fn record_drop(&mut self, channel: usize) {
        self.channels[channel].shares_dropped.inc();
    }

    /// Records a share delivered from `channel` at simulated time
    /// `now_nanos`, `delay_nanos` after it was stamped at the sender.
    pub fn record_receive(&mut self, channel: usize, now_nanos: u64, delay_nanos: u64) {
        self.channels[channel].shares_received.inc();
        let hist = &self.histograms.channels[channel];
        hist.one_way_delay.record(delay_nanos);
        let last = self.last_rx_nanos[channel];
        if last != NO_RX {
            hist.inter_share_gap.record(now_nanos.saturating_sub(last));
        }
        self.last_rx_nanos[channel] = now_nanos;
    }

    /// Records a completed symbol's reassembly residency.
    pub fn record_residency(&mut self, nanos: u64) {
        self.histograms.residency.record(nanos);
    }

    /// Number of scheduler draws recorded.
    #[must_use]
    pub fn choices(&self) -> u64 {
        self.choices.get()
    }

    /// How many draws realized exactly `(k, m)`.
    #[must_use]
    pub fn km_count(&self, k: usize, m: usize) -> u64 {
        if k <= self.n && m <= self.n {
            self.km[k * (self.n + 1) + m].get()
        } else {
            0
        }
    }

    /// Mean realized threshold — must converge to the configured `κ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_kappa(&self) -> f64 {
        let n = self.choices.get();
        if n == 0 {
            0.0
        } else {
            self.sum_k.get() as f64 / n as f64
        }
    }

    /// Mean realized multiplicity — must converge to the configured `μ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_mu(&self) -> f64 {
        let n = self.choices.get();
        if n == 0 {
            0.0
        } else {
            self.sum_m.get() as f64 / n as f64
        }
    }

    /// Total shares handed to send queues across channels.
    #[must_use]
    pub fn shares_sent_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_sent.get()).sum()
    }

    /// Total shares dropped by full send queues across channels.
    #[must_use]
    pub fn shares_dropped_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_dropped.get()).sum()
    }

    /// Total shares delivered across channels.
    #[must_use]
    pub fn shares_received_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_received.get()).sum()
    }

    /// Serializable snapshot under `remicss.*` names (e.g.
    /// `remicss.shares_sent.ch0`, `remicss.delay.ch2`). The
    /// distributions are those of the session's [`ShareHistograms`]
    /// set. Empty with the `telemetry` feature off — the metrics are
    /// absent, not zero.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        #[cfg(not(feature = "telemetry"))]
        {
            MetricsSnapshot::default()
        }
        #[cfg(feature = "telemetry")]
        {
            use mcss_obs::CounterSnapshot;
            let mut snap = MetricsSnapshot::default();
            for (i, ch) in self.channels.iter().enumerate() {
                for (what, counter) in [
                    ("shares_sent", &ch.shares_sent),
                    ("shares_dropped", &ch.shares_dropped),
                    ("shares_received", &ch.shares_received),
                ] {
                    snap.counters.push(CounterSnapshot {
                        name: format!("remicss.{what}.ch{i}"),
                        value: counter.get(),
                    });
                }
            }
            snap.counters.push(CounterSnapshot {
                name: "remicss.scheduler.choices".to_string(),
                value: self.choices.get(),
            });
            self.histograms.extend_snapshot("remicss", &mut snap);
            snap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_means_over_fixed_draws() {
        let mut m = SessionMetrics::new(4);
        m.record_choice(2, 3);
        m.record_choice(3, 4);
        // With telemetry off the counters are absent, not zero.
        let expected_choices = if cfg!(feature = "telemetry") { 2 } else { 0 };
        assert_eq!(m.choices(), expected_choices);
        assert_eq!(
            m.km_count(2, 3),
            if cfg!(feature = "telemetry") { 1 } else { 0 }
        );
        if cfg!(feature = "telemetry") {
            assert!((m.empirical_kappa() - 2.5).abs() < 1e-12);
            assert!((m.empirical_mu() - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn per_channel_counters_are_independent() {
        let mut m = SessionMetrics::new(3);
        m.record_send(0);
        m.record_send(0);
        m.record_drop(2);
        m.record_receive(1, 1_000, 250);
        if cfg!(feature = "telemetry") {
            assert_eq!(m.channel(0).shares_sent.get(), 2);
            assert_eq!(m.channel(1).shares_received.get(), 1);
            assert_eq!(m.channel(2).shares_dropped.get(), 1);
            assert_eq!(m.shares_sent_total(), 2);
            assert_eq!(m.shares_received_total(), 1);
            assert_eq!(m.shares_dropped_total(), 1);
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn inter_share_gap_needs_two_deliveries() {
        let mut m = SessionMetrics::new(1);
        m.record_receive(0, 1_000, 100);
        let gap = &m.histograms().channel(0).inter_share_gap;
        assert!(gap.is_empty());
        m.record_receive(0, 1_750, 100);
        let gap = &m.histograms().channel(0).inter_share_gap;
        assert_eq!(gap.count(), 1);
        assert_eq!(gap.max(), 750);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn shared_set_collects_every_session() {
        let shared = Arc::new(ShareHistograms::new(2));
        let mut a = SessionMetrics::with_histograms(Arc::clone(&shared));
        let mut b = SessionMetrics::with_histograms(Arc::clone(&shared));
        a.record_receive(1, 1_000, 100);
        b.record_receive(1, 1_500, 300);
        b.record_residency(40);
        // Counters stay per session; distributions land in one set.
        assert_eq!(a.shares_received_total(), 1);
        assert_eq!(b.shares_received_total(), 1);
        assert_eq!(shared.channel(1).one_way_delay.count(), 2);
        assert_eq!(shared.channel(1).one_way_delay.max(), 300);
        // Gaps are per session: each saw one delivery on channel 1.
        assert!(shared.channel(1).inter_share_gap.is_empty());
        assert_eq!(shared.residency.count(), 1);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn merge_covers_narrower_sets() {
        let (wide, narrow) = (ShareHistograms::new(3), ShareHistograms::new(2));
        wide.channel(2).one_way_delay.record(7);
        narrow.channel(1).one_way_delay.record(9);
        narrow.residency.record(11);
        wide.merge_from(&narrow);
        assert_eq!(wide.channel(1).one_way_delay.max(), 9);
        assert_eq!(wide.channel(2).one_way_delay.count(), 1);
        assert_eq!(wide.residency.count(), 1);
        let mut snap = MetricsSnapshot::default();
        wide.extend_snapshot("x", &mut snap);
        let names: Vec<_> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            names,
            ["x.delay.ch1", "x.delay.ch2", "x.reassembly.residency"]
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn snapshot_names_are_per_channel() {
        let mut m = SessionMetrics::new(2);
        m.record_send(1);
        m.record_receive(1, 5_000, 400);
        let snap = m.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "remicss.shares_sent.ch1" && c.value == 1));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "remicss.delay.ch1"));
        // Channel 0 saw no deliveries: counter present at zero, but no
        // empty histograms.
        assert!(!snap.histograms.iter().any(|h| h.name.ends_with("ch0")));
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_snapshot_is_empty() {
        let mut m = SessionMetrics::new(2);
        m.record_send(0);
        m.record_receive(0, 1_000, 100);
        assert!(m.snapshot().is_empty());
        assert_eq!(m.shares_sent_total(), 0);
    }
}
