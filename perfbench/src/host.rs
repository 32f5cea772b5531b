//! The host stamp printed with every result, and process memory.

use std::path::Path;

/// Where a result was measured.
#[derive(Clone, Debug)]
pub struct HostStamp {
    /// CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl HostStamp {
    /// Reads the stamp for the current process, run from `root`.
    pub fn read(root: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostStamp {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }

    /// One line for the report.
    pub fn render(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" rustc=\"{}\" git_rev={}",
            self.nproc, self.cpu, self.rustc, self.git_rev
        )
    }
}

/// CPUs available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `root/.git` points at, read from its files (no `git`
/// process, and no walking up into an enclosing repository).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
