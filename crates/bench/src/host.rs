//! The host stamp `record` and `profile` write into their baselines,
//! so timings are compared only between runs on the same machine.

use std::path::Path;

/// The stamp of the current process, run from the checkout at `root`,
/// as a one-line JSON object `{nproc, cpu, rustc, git_rev}`:
///
/// * `nproc` — CPUs available to this process;
/// * `cpu` — `model name` of the first CPU in `/proc/cpuinfo`;
/// * `rustc` — `rustc -V` of the toolchain on `PATH`;
/// * `git_rev` — the commit `root/.git` points at.
///
/// A field that cannot be read is `"unknown"`.
pub fn stamp_json(root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let text = |v: Option<String>| {
        let v = v.unwrap_or_else(|| "unknown".to_string());
        format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
    };
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        text(cpu),
        text(rustc),
        text(git_rev(root))
    )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_one_json_object_with_every_field() {
        let json = stamp_json(Path::new("."));
        for field in ["nproc", "cpu", "rustc", "git_rev"] {
            assert!(json.contains(&format!("\"{field}\": ")), "{field}");
        }
        assert!(json.starts_with("{\"nproc\": ") && json.ends_with("\"}"));
        assert_eq!(json.matches('{').count(), 1);
        // Outside a checkout the revision is unknown, not an error.
        let elsewhere = stamp_json(Path::new("no-such-checkout"));
        assert!(elsewhere.ends_with("\"git_rev\": \"unknown\"}"));
    }
}
