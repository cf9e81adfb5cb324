//! The host and run stamp printed with every result: a number without the
//! machine, toolchain and sizes it was measured with cannot be compared.

use crate::json;
use std::path::Path;
use std::process::Command;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
    /// Generator fidelity (part of the workload definition).
    pub fidelity: &'static str,
    /// Engine worker threads the program chose.
    pub workers: usize,
    /// Load-generator clients.
    pub clients: usize,
    /// Directory archives were written under.
    pub work_dir: String,
}

/// What every reader of a number from this benchmark must know.
pub const NOTES: [&str; 3] = [
    "HTTP crosses the host loopback interface",
    "archives are read back from the OS page cache; the store never fsyncs",
    "external crates are the offline stand-ins under lockbench/vendor",
];

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Commit id read from `.git` directly (no `git` process): the driver's
/// checkout is not a repository, and then this is `unknown`.
fn git_rev(root: &Path) -> String {
    let head = match first_line(&root.join(".git/HEAD").to_string_lossy()) {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => first_line(&root.join(".git").join(reference).to_string_lossy())
            .unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

impl Stamp {
    /// Collect the stamp for a run from `root` (the checkout).
    pub fn collect(
        root: &Path,
        seed: u64,
        workers: usize,
        clients: usize,
        work_dir: &Path,
    ) -> Stamp {
        Stamp {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            kernel: first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: rustc_version(),
            git_rev: git_rev(root),
            seed,
            fidelity: "test",
            workers,
            clients,
            work_dir: work_dir.display().to_string(),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = NOTES.iter().map(|n| json::quote(n)).collect();
        format!(
            "{{\"cores\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_rev\":{},\"seed\":{},\"fidelity\":{},\"workers\":{},\"clients\":{},\"work_dir\":{},\"notes\":[{}]}}",
            self.cores,
            json::quote(&self.cpu_model),
            json::quote(&self.kernel),
            json::quote(&self.rustc),
            json::quote(&self.git_rev),
            self.seed,
            json::quote(self.fidelity),
            self.workers,
            self.clients,
            json::quote(&self.work_dir),
            notes.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stamp_is_valid_json_with_every_field() {
        let stamp = Stamp::collect(Path::new("."), 7, 2, 2, Path::new("/tmp/w"));
        let v = json::parse(&stamp.to_json()).unwrap();
        for key in [
            "cores",
            "cpu_model",
            "kernel",
            "rustc",
            "git_rev",
            "seed",
            "fidelity",
            "workers",
            "clients",
            "work_dir",
            "notes",
        ] {
            assert!(v.get(key).is_some(), "{key}");
        }
        assert!(v.get("cores").and_then(json::Value::as_f64).unwrap() >= 1.0);
    }
}
