//! Heap footprint of one registered server session.
//!
//! A shard hands one set of share histograms (per-channel delay and
//! inter-share gap, reassembly residency: ~170 KB over five channels)
//! to every session it owns, so a registration costs only the session's
//! engine, counters and reassembly state. A counting global allocator
//! (filtered to the measuring thread, as in `pool_handoff`) tracks the
//! live heap bytes across 1,000 registrations and pins the per-session
//! cost — a deterministic number where RSS would be noisy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use mcss_base::SimTime;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{SourceMode, Workload};
use mcss_server::{ServerConfig, ShardSet};

struct CountingAllocator;

/// Live heap bytes allocated on the measuring thread.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static ON_MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_here(delta: i64) {
    if ON_MEASURED_THREAD.try_with(Cell::get).unwrap_or(false) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_here(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SESSIONS: u32 = 1_000;
const CHANNELS: usize = 5;
/// Bound on live heap bytes per registration. The session's own state
/// is a few KB; a private histogram set would add ~170 KB.
const MAX_BYTES_PER_SESSION: i64 = 8 * 1024;

#[test]
fn registered_session_costs_a_few_kib() {
    let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_symbol_bytes(64));
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    let workload = Workload::cbr(4.0, SimTime::from_secs(60));

    ON_MEASURED_THREAD.with(|m| m.set(true));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for cid in 0..SESSIONS {
        let source = SourceMode::Paced(workload.with_phase(SimTime::from_millis(u64::from(cid))));
        set.add_session(cid, Arc::clone(&protocol), CHANNELS, source, u64::from(cid))
            .unwrap();
    }
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    ON_MEASURED_THREAD.with(|m| m.set(false));

    assert_eq!(set.session_count(), SESSIONS as usize);
    let per_session = grown / i64::from(SESSIONS);
    println!("{per_session} heap bytes per registered session");
    assert!(
        per_session <= MAX_BYTES_PER_SESSION,
        "{per_session} B per session exceeds {MAX_BYTES_PER_SESSION} B"
    );
    // Every shard shares one histogram set across its sessions.
    for i in 0..set.num_shards() {
        let shard = set.shard(i);
        assert_eq!(shard.share_histograms().len(), 1);
        assert_eq!(shard.share_histograms()[0].channel_count(), CHANNELS);
    }
}
