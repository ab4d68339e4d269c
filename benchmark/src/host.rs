//! Host fingerprint, peak memory, and the run directory.

use std::path::{Path, PathBuf};

/// `benchmark/`, fixed when the benchmark was built in its checkout.
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// SIMD tier the lane kernels dispatch to.
    pub simd: &'static str,
    /// Filesystem type under the run directory.
    pub fs_type: String,
}

impl Fingerprint {
    /// Reads the fingerprint; `run_dir` must exist.
    pub fn read(run_dir: &Path) -> Self {
        Self {
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: csd_tensor::lanes::simd_level(),
            fs_type: fs_type(run_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// `HEAD` of the repository that holds `benchmark/`, read from `.git`
/// directly (no `git` process, and none needed in a bare checkout).
fn git_commit() -> Option<String> {
    let git = Path::new(MANIFEST_DIR).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Filesystem type of the mount that holds `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs.to_string())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Busy and stolen CPU ticks of the whole machine so far
/// (`/proc/stat`): the hypervisor's account of time it ran somebody
/// else on this machine's cores while they had work.
pub fn stolen_share_base() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields[..] {
        // user nice system idle iowait irq softirq steal ...
        [user, nice, system, _, _, irq, softirq, steal, ..] => {
            (user + nice + system + irq + softirq, steal)
        }
        _ => (0, 0),
    }
}

/// Stolen ticks over busy plus stolen ticks since `base`: how much of
/// the time this machine wanted a core it did not get one. The metrics
/// in CPU seconds may or may not include that time, depending on the
/// kernel; a run where this is more than a few percent was disturbed.
pub fn stolen_share_since(base: (u64, u64)) -> f64 {
    let (busy, stolen) = stolen_share_base();
    let (busy, stolen) = (busy.saturating_sub(base.0), stolen.saturating_sub(base.1));
    stolen as f64 / (busy + stolen).max(1) as f64
}

/// `benchmark/target/`: run directories and span dumps live here.
pub fn output_dir() -> PathBuf {
    let dir = Path::new(MANIFEST_DIR).join("target");
    // Relative to the working directory when possible: a Unix socket
    // path is limited to about a hundred bytes.
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(dir)
}

/// This process's run directory, removed when dropped.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `benchmark/target/run-<pid>/`.
    ///
    /// Fails when the directory sits on a memory filesystem: fsync
    /// there costs nothing, and the durable path would measure as fast
    /// as the volatile one.
    pub fn create() -> std::io::Result<Self> {
        let dir = output_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let run = Self(dir);
        match fs_type(&run.0).as_deref() {
            Some(fs @ ("tmpfs" | "ramfs")) => Err(std::io::Error::other(format!(
                "{} is on {fs}: the durable directory must be on a real disk",
                run.0.display()
            ))),
            _ => Ok(run),
        }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
