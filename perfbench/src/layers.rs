//! The layer replay of the traced `core_bulk` run: the symbols the loop
//! just moved (same sessions, payloads and dropped shares) are pushed
//! again through the layers' own public functions, with a span around
//! each call — wire header encode, codec split, in-place decode,
//! reassembly accept and codec reconstruct — plus a GF(2⁸) kernel
//! measurement on 1250 B planes with the active backend.

use std::time::Instant;

use mcss_codec::{CodecId, CodecScratch};
use mcss_gf256::{slice, Gf256};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyTable};
use mcss_remicss::wire::{put_share_header_for, ShareRef};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use mcss_remicss::engine::SessionReport;

use crate::budget::{Budget, Row};
use crate::common::{mix, Args, SimClock};
use crate::core_bulk::{self, codec_of, SymbolLog, KAPPA, MU, SESSIONS};
use crate::report::Outcome;
use crate::trace::Tracer;

/// Span names of the replay.
pub static SPANS: &[&str] = &[
    "symbol",
    "wire.encode",
    "codec.shamir.split",
    "codec.xor.split",
    "wire.decode",
    "reassembly.accept",
    "codec.shamir.reconstruct",
    "codec.xor.reconstruct",
    "reassembly.sweep",
    "gf256.scale_add",
    "gf256.horner",
];
const SP_SYMBOL: usize = 0;
/// `wire.encode`.
pub const SP_ENCODE: usize = 1;
/// `codec.shamir.split`.
pub const SP_SPLIT_SHAMIR: usize = 2;
/// `codec.xor.split`.
pub const SP_SPLIT_XOR: usize = 3;
/// `wire.decode`.
pub const SP_DECODE: usize = 4;
/// `reassembly.accept`.
pub const SP_ACCEPT: usize = 5;
/// `codec.shamir.reconstruct`.
pub const SP_RECON_SHAMIR: usize = 6;
/// `codec.xor.reconstruct`.
pub const SP_RECON_XOR: usize = 7;
/// `reassembly.sweep`.
pub const SP_SWEEP: usize = 8;
const SP_SCALE_ADD: usize = 9;
const SP_HORNER: usize = 10;

/// Plane length of the GF(2⁸) kernel measurement.
const PLANE: usize = 1250;
/// Kernel calls per measured batch.
const KERNEL_BATCH: usize = 2_000;
/// Batches per kernel.
const KERNEL_BATCHES: usize = 10;

/// Counts of the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// Symbols replayed.
    pub symbols: u64,
    /// Shares encoded (μ per symbol).
    pub shares: u64,
    /// Shares decoded and accepted (those the wire did not drop).
    pub arrived: u64,
    /// Symbols whose reassembly and direct reconstruction both matched
    /// the payload, or that were correctly left incomplete.
    pub failed: u64,
    /// GF(2⁸) kernel bytes processed.
    pub kernel_bytes: u64,
}

/// Replays `log` through the layers with spans on `tracer`.
///
/// # Panics
///
/// Panics if a layer rejects the fixed parameters.
pub fn replay(log: &[SymbolLog], payloads: &[Vec<u8>], seed: u64, tracer: &mut Tracer) -> Replayed {
    let config = ProtocolConfig::new(f64::from(KAPPA), f64::from(MU)).expect("valid (κ, μ)");
    let mut tables: Vec<ReassemblyTable> = (0..SESSIONS)
        .map(|_| {
            ReassemblyTable::new(
                config.reassembly_timeout(),
                config.reassembly_capacity_bytes(),
            )
        })
        .collect();
    let clock = SimClock::new();
    let mut rng = StdRng::seed_from_u64(mix(seed, 21));
    let mut scratch = CodecScratch::new();
    let m = usize::from(MU);
    let mut outs: Vec<Vec<u8>> = (0..m).map(|_| Vec::with_capacity(2048)).collect();
    let mut out = Vec::with_capacity(2048);
    let mut direct = Vec::with_capacity(2048);
    let mut r = Replayed::default();
    // Sweep cadence of the engine: a quarter of the reassembly timeout,
    // at least 1 ms.
    let sweep_period_ns = (config.reassembly_timeout().as_nanos() / 4).max(1_000_000);
    let mut last_sweep = 0;
    for s in log {
        let codec = codec_of(s.cid);
        let payload = &payloads[usize::from(s.payload)];
        let key = Some((s.cid, s.seq));
        let now = clock.at(Instant::now());
        let share_len = codec.share_len(payload.len(), KAPPA, MU);
        tracer.begin(SP_SYMBOL, key);
        tracer.leaf(SP_ENCODE, key, || {
            for (j, buf) in outs.iter_mut().enumerate() {
                buf.clear();
                put_share_header_for(
                    buf,
                    codec,
                    s.seq,
                    KAPPA,
                    MU,
                    j as u8 + 1,
                    now.as_nanos(),
                    share_len,
                )
                .expect("valid share header");
            }
        });
        let split = match codec {
            CodecId::Shamir => SP_SPLIT_SHAMIR,
            CodecId::Xor2d => SP_SPLIT_XOR,
        };
        tracer.leaf(split, key, || {
            codec
                .split_into(payload, KAPPA, MU, &mut rng, &mut scratch, &mut outs)
                .expect("split succeeds");
        });
        let mut refs: [Option<ShareRef<'_>>; 8] = [None; 8];
        tracer.leaf(SP_DECODE, key, || {
            for (j, slot) in refs.iter_mut().enumerate().take(m) {
                if s.dropped & (1 << j) == 0 {
                    *slot = Some(ShareRef::decode(&outs[j]).expect("own frame decodes"));
                }
            }
        });
        let n_arrived = refs.iter().flatten().count();
        let table = &mut tables[s.cid as usize];
        let completed = tracer.leaf(SP_ACCEPT, key, || {
            let mut completed = false;
            for share in refs.iter().flatten() {
                completed |= table.accept_into(share, now, &mut out) == AcceptOutcome::Completed;
            }
            completed
        });
        let recon = match codec {
            CodecId::Shamir => SP_RECON_SHAMIR,
            CodecId::Xor2d => SP_RECON_XOR,
        };
        let enough = n_arrived >= usize::from(KAPPA);
        let direct_ok = enough
            && tracer.leaf(recon, key, || {
                let mut pairs: [(u8, &[u8]); KAPPA as usize] = [(0, &[]); KAPPA as usize];
                for (pair, share) in pairs.iter_mut().zip(refs.iter().flatten()) {
                    *pair = (share.x(), share.payload());
                }
                codec
                    .reconstruct_into(KAPPA, MU, &pairs, &mut direct)
                    .is_ok()
            });
        tracer.end();
        let good = if enough {
            completed && direct_ok && out == *payload && direct == *payload
        } else {
            !completed
        };
        r.failed += u64::from(!good);
        r.symbols += 1;
        r.shares += m as u64;
        r.arrived += n_arrived as u64;
        if now.as_nanos() >= last_sweep + sweep_period_ns {
            last_sweep = now.as_nanos();
            tracer.leaf(SP_SWEEP, None, || {
                for t in &mut tables {
                    t.sweep(now);
                }
            });
        }
    }
    r.kernel_bytes = kernels(seed, tracer);
    r
}

/// Times `slice::scale_add_assign` and `slice::horner_into` on
/// 1250 B planes; returns the bytes processed.
fn kernels(seed: u64, tracer: &mut Tracer) -> u64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, 22));
    let mut plane = || {
        let mut p = vec![0u8; PLANE];
        rng.fill_bytes(&mut p);
        p
    };
    let (src, p1, p2) = (plane(), plane(), plane());
    let mut dst = plane();
    let mut acc = vec![0u8; PLANE];
    let x = Gf256::new(0x53);
    let mut bytes = 0u64;
    for _ in 0..KERNEL_BATCHES {
        tracer.leaf(SP_SCALE_ADD, None, || {
            for _ in 0..KERNEL_BATCH {
                slice::scale_add_assign(std::hint::black_box(&mut dst), &src, x);
            }
        });
        tracer.leaf(SP_HORNER, None, || {
            for _ in 0..KERNEL_BATCH {
                slice::horner_into(std::hint::black_box(&mut acc), &[&p1, &p2], x);
            }
        });
        bytes += (KERNEL_BATCH * PLANE * 3) as u64;
    }
    std::hint::black_box((&dst, &acc));
    bytes
}

/// Nanoseconds per KiB the kernels processed.
#[must_use]
pub fn kernel_ns_per_kib(tracer: &Tracer, bytes: u64) -> f64 {
    let ns = tracer.agg(SP_SCALE_ADD).total_ns + tracer.agg(SP_HORNER).total_ns;
    ns as f64 / (bytes as f64 / 1024.0)
}

/// The traced `core_bulk` run: interleaved untraced and traced chunks
/// of the loop, the layer replay of the traced symbols, and the
/// per-layer metrics and budget derived from both.
pub fn core_bulk(args: &Args, out: &mut Outcome, epoch: Instant) -> Vec<Tracer> {
    let t = core_bulk::run_traced(args, epoch, SPAN_CAP);
    let mut rep_tracer = Tracer::new(SPANS, epoch, SPAN_CAP);
    let rep = replay(&t.rig.log, &t.rig.payloads, args.seed, &mut rep_tracer);
    out.attempted = t.symbols + rep.symbols;
    out.failed = t.failed + rep.failed;
    out.gate(
        "loop payloads byte-exact and delivered iff >= kappa shares arrived",
        t.failed == 0,
        format!("{} of {} symbols wrong", t.failed, t.symbols),
    );
    out.gate(
        "layer replay reconstructs every recoverable symbol byte-exact",
        rep.failed == 0,
        format!("{} of {} symbols wrong", rep.failed, rep.symbols),
    );
    out.gate(
        "alloc.per_symbol == 0",
        t.allocations == 0,
        format!("{} allocations over {} symbols", t.allocations, t.symbols),
    );

    let lt = &t.tracer;
    let n = t.traced_symbols.max(1) as f64;
    let loop_ns = |s: usize| lt.agg(s).total_ns as f64 / n;
    // The symbol root spans hold exactly the shard-set calls, so the
    // server total is their sum plus the separate poll spans.
    let server_ns = loop_ns(core_bulk::SP_SYMBOL) + loop_ns(core_bulk::SP_POLL);
    let rt = &rep_tracer;
    let rs = rep.symbols.max(1) as f64;
    let total = |s: usize| rt.agg(s).total_ns as f64;
    let per_call = |s: usize| total(s) / rt.agg(s).count.max(1) as f64;
    let recon_total = total(SP_RECON_SHAMIR) + total(SP_RECON_XOR);
    let rows = vec![
        Row {
            name: "codec.split",
            ns_per_sym: (total(SP_SPLIT_SHAMIR) + total(SP_SPLIT_XOR)) / rs,
        },
        Row {
            name: "codec.reconstruct",
            ns_per_sym: recon_total / rs,
        },
        Row {
            name: "wire.encode",
            ns_per_sym: total(SP_ENCODE) / rs,
        },
        Row {
            name: "wire.decode",
            ns_per_sym: total(SP_DECODE) / rs,
        },
        // Accept reconstructs the completing share's symbol itself;
        // that part is already the codec.reconstruct row.
        Row {
            name: "reassembly.accept_and_sweep",
            ns_per_sym: (total(SP_ACCEPT) - recon_total + total(SP_SWEEP)) / rs,
        },
    ];
    let budget = Budget::new(server_ns, rows, "engine.residual");
    let coverage = budget.coverage_of(t.untraced_ns_per_sym);

    let [r0, r1] = &t.reports;
    let [s0, s1] = &t.totals;
    let delta = |f: fn(&SessionReport) -> u64| {
        r1.iter().map(f).sum::<u64>() - r0.iter().map(f).sum::<u64>()
    };
    let completed = delta(|r| r.reassembly.completed);
    let evicted = delta(|r| r.reassembly.timeout_evictions);
    let sent = delta(|r| r.sent_symbols);
    let received = (s1.datagrams_received - s0.datagrams_received).max(1);

    out.metric(
        "gf256.scale_add_ns_per_kib",
        kernel_ns_per_kib(rt, rep.kernel_bytes),
        "ns",
        rep.kernel_bytes / 1024,
    );
    for (name, span) in [
        ("codec.shamir.split_ns", SP_SPLIT_SHAMIR),
        ("codec.shamir.reconstruct_ns", SP_RECON_SHAMIR),
        ("codec.xor.split_ns", SP_SPLIT_XOR),
        ("codec.xor.reconstruct_ns", SP_RECON_XOR),
    ] {
        out.metric(name, per_call(span), "ns", rt.agg(span).count);
    }
    out.metric(
        "wire.encode_ns",
        total(SP_ENCODE) / rep.shares.max(1) as f64,
        "ns",
        rep.shares,
    );
    out.metric(
        "wire.decode_ns",
        total(SP_DECODE) / rep.arrived.max(1) as f64,
        "ns",
        rep.arrived,
    );
    out.metric(
        "reassembly.accept_ns",
        total(SP_ACCEPT) / rep.arrived.max(1) as f64,
        "ns",
        rep.arrived,
    );
    out.metric(
        "reassembly.completed_per_accept",
        completed as f64 / received as f64,
        "1",
        received,
    );
    out.metric(
        "reassembly.evicted_per_ksym",
        evicted as f64 * 1e3 / sent.max(1) as f64,
        "1",
        sent,
    );
    out.metric(
        "server.offer_ns",
        loop_ns(core_bulk::SP_OFFER),
        "ns",
        t.traced_symbols,
    );
    out.metric(
        "server.deliver_datagram_ns",
        lt.agg(core_bulk::SP_DELIVER).total_ns as f64 / t.traced_datagrams.max(1) as f64,
        "ns",
        t.traced_datagrams,
    );
    out.metric(
        "server.handoffs_per_datagram",
        (s1.handoff_in - s0.handoff_in) as f64 / received as f64,
        "1",
        received,
    );
    out.metric(
        "engine.residual_ns",
        budget.residual_ns,
        "ns",
        t.traced_symbols,
    );
    out.metric(
        "alloc.per_symbol",
        t.allocations as f64 / t.symbols.max(1) as f64,
        "1",
        t.symbols,
    );
    out.metric(
        "alloc.lazy_per_ksym",
        t.lazy.allocations as f64 * 1e3 / t.lazy.attempted.max(1) as f64,
        "1",
        t.lazy.attempted,
    );
    out.note(format!(
        "plain traffic {:.0}-{:.0} s after set-up, before the warm-up: {} allocations \
         over {} symbols (alloc.lazy_per_ksym)",
        core_bulk::COLD.as_secs_f64(),
        (core_bulk::COLD + core_bulk::LAZY).as_secs_f64(),
        t.lazy.allocations,
        t.lazy.attempted
    ));
    out.metric("budget.coverage", coverage, "1", t.traced_symbols);
    out.metric(
        "trace.overhead_share",
        t.traced_ns_per_sym / t.untraced_ns_per_sym - 1.0,
        "1",
        t.traced_symbols,
    );
    out.metric(
        "warmup.second_over_first",
        t.half_rates[1] / t.half_rates[0],
        "1",
        2,
    );
    for row in &budget.rows {
        out.note(format!(
            "budget {:<28} {:>9.1} ns/sym",
            row.name, row.ns_per_sym
        ));
    }
    out.note(format!(
        "budget {:<28} {:>9.1} ns/sym",
        budget.residual_name, budget.residual_ns
    ));
    out.note(format!(
        "budget {:<28} {:>9.1} ns/sym (server.* total, traced)",
        "total",
        budget.sum_ns()
    ));
    out.note(format!(
        "budget {:<28} {:>9.1} ns/sym (loss draws, verification, loop)",
        "outside spans",
        t.traced_ns_per_sym - budget.sum_ns()
    ));
    out.note(format!(
        "untraced {:.1} ns/sym; traced wall {:.1} ns/sym; coverage {:.3}",
        t.untraced_ns_per_sym, t.traced_ns_per_sym, coverage
    ));
    out.note(format!(
        "untraced delivered rate by half: {:.0} / {:.0} sym/s",
        t.half_rates[0], t.half_rates[1]
    ));
    vec![t.tracer, rep_tracer]
}

/// Spans stored per tracer.
const SPAN_CAP: usize = 50_000;
