//! Pieces every workload shares: run arguments, seed derivation and
//! the wall-clock-driven protocol clock.

use std::time::{Duration, Instant};

use mcss_base::SimTime;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value {value:?} for --trace")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run
/// seed, so one `--seed` fixes every input of a workload.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Protocol time for a synchronously driven `ShardSet`: wall time
/// since `start`, plus any time skipped forward with
/// [`skip`](SimClock::skip).
#[derive(Debug, Clone, Copy)]
pub struct SimClock {
    start: Instant,
    skipped_ns: u64,
}

impl SimClock {
    /// A clock reading zero now.
    #[must_use]
    pub fn new() -> Self {
        SimClock {
            start: Instant::now(),
            skipped_ns: 0,
        }
    }

    /// Protocol time at wall instant `t`.
    #[must_use]
    pub fn at(&self, t: Instant) -> SimTime {
        SimTime::from_nanos(
            self.skipped_ns + t.saturating_duration_since(self.start).as_nanos() as u64,
        )
    }

    /// Moves protocol time forward by `d` without waiting for it.
    pub fn skip(&mut self, d: Duration) {
        self.skipped_ns += d.as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "core_bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "core_bulk");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn mixed_seeds_differ_per_stream() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }

    #[test]
    fn clock_skips_forward() {
        let mut c = SimClock::new();
        let t = Instant::now();
        let before = c.at(t);
        c.skip(Duration::from_secs(3));
        assert_eq!(c.at(t).as_nanos() - before.as_nanos(), 3_000_000_000);
    }
}
