//! The run header: what ran, how it was built, on what host, with which
//! worker counts and seed, at which revision.

use crate::{json_str, Run, Workload, SIM_WORKERS};

/// CPUs this process may run on, as `nproc` reports them (the affinity
/// mask in `/proc/self/status`), falling back to
/// [`std::thread::available_parallelism`].
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| count_cpu_list(list.trim()))
        })
        .filter(|n| *n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Counts the CPUs of a kernel CPU list such as `0-3,6,8-9`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// [`std::thread::available_parallelism`], 1 if unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; `None` outside a git checkout.
pub fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
}

/// HTTP clients and workers of `compare_serve`: one per host CPU.
pub fn http_workers(run: &Run) -> usize {
    run.nproc
}

/// Everything the report records about how the run was made.
pub struct Header {
    command: Vec<String>,
    profile: &'static str,
    nproc: usize,
    available_parallelism: usize,
    sim_workers: usize,
    sim_workers_clamped: bool,
    http_workers: Option<usize>,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    git_revision: Option<String>,
}

impl Header {
    /// Collects the header of `run`.
    pub fn collect(run: &Run) -> Self {
        Self {
            command: std::env::args().collect(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            nproc: run.nproc,
            available_parallelism: available_parallelism(),
            sim_workers: SIM_WORKERS,
            sim_workers_clamped: SIM_WORKERS > run.nproc,
            http_workers: (run.workload == Workload::CompareServe).then(|| http_workers(run)),
            workload: run.workload.name(),
            seed: run.seed,
            seconds: run.seconds,
            trace: run.trace,
            smoke: run.smoke,
            git_revision: git_revision(),
        }
    }

    /// One human-readable line.
    pub fn render_text(&self) -> String {
        format!(
            "run: {} | profile {} | nproc {} | available_parallelism {} | sim workers {}{} | http workers/clients {} | workload {} | seed {} | seconds {} | trace {} | smoke {} | git {}",
            self.command.join(" "),
            self.profile,
            self.nproc,
            self.available_parallelism,
            self.sim_workers,
            if self.sim_workers_clamped { " (clamped to nproc)" } else { "" },
            self.http_workers.map_or("-".to_owned(), |n| n.to_string()),
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.smoke,
            self.git_revision.as_deref().unwrap_or("unavailable"),
        )
    }

    /// The header as a JSON object.
    pub fn render_json(&self) -> String {
        let command: Vec<String> = self.command.iter().map(|a| json_str(a)).collect();
        format!(
            "{{\"command\":[{}],\"profile\":\"{}\",\"nproc\":{},\"available_parallelism\":{},\"sim_workers\":{},\"sim_workers_clamped\":{},\"http_workers\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"git_revision\":{}}}",
            command.join(","),
            self.profile,
            self.nproc,
            self.available_parallelism,
            self.sim_workers,
            self.sim_workers_clamped,
            self.http_workers.map_or("null".to_owned(), |n| n.to_string()),
            self.workload,
            self.seed,
            crate::json_num(self.seconds),
            self.trace,
            self.smoke,
            self.git_revision.as_deref().map_or("null".to_owned(), json_str),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_like_nproc() {
        assert_eq!(count_cpu_list("0-1"), 2);
        assert_eq!(count_cpu_list("0-3,6,8-9"), 7);
        assert_eq!(count_cpu_list("5"), 1);
    }
}
