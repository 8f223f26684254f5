//! The host and build a result was measured on, recorded with every
//! run so results from different machines or builds are never
//! compared unknowingly.

use std::fs;
use std::path::Path;

use mcss_gf256::simd::Backend;
use mcss_server::IoMode;

/// Host and build identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Active GF(2⁸) kernel backend.
    pub gf256_backend: &'static str,
    /// I/O backend the UDP server resolves to.
    pub io_backend: String,
    /// Whether the `telemetry` instrumentation is compiled in.
    pub telemetry: bool,
    /// Commit of the source tree, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process.
    #[must_use]
    pub fn current() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            kernel,
            gf256_backend: Backend::active().name(),
            io_backend: IoMode::Auto
                .resolve()
                .map_or_else(|e| format!("unavailable ({e})"), |b| b.name().to_string()),
            telemetry: cfg!(feature = "telemetry"),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// `(key, value)` pairs in report order.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cpu_model", self.cpu_model.clone()),
            ("nproc", self.nproc.to_string()),
            ("kernel", self.kernel.clone()),
            ("gf256_backend", self.gf256_backend.to_string()),
            ("io_backend", self.io_backend.clone()),
            ("telemetry", self.telemetry.to_string()),
            ("commit", self.commit.clone()),
        ]
    }
}

/// Resolves `HEAD` of the git checkout at `root` by reading `.git`
/// directly (no subprocess): a detached hash, or the hash a branch ref
/// points to, loose or packed.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
