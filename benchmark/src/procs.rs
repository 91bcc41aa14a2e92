//! Child processes and `/proc` readings: building the product
//! binaries, spawning a coordinator and its workers on ports the
//! kernel assigns, reaping them on every exit path, and reading CPU
//! time and peak memory for the harness and its children.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The repo root this package was compiled in.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// How long a freshly spawned child may take to print the line that
/// names its port. The kernel assigns the port at bind time, so the
/// line's arrival is also the readiness signal: no polling, no sleep.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);

/// A child process that cannot outlive its owner: dropped on any exit
/// path — return, `?`, panic unwinding — it is killed and waited for,
/// and its stderr reader is joined.
pub struct ChildGuard {
    child: Child,
    stderr_reader: Option<JoinHandle<()>>,
}

impl ChildGuard {
    /// The child's pid, for `/proc` readings.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `limit` for the child to exit on its own (after a
    /// graceful shutdown request); true when it did with status 0.
    pub fn exited_cleanly_within(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return false,
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

/// Spawns `bin args…` with stderr piped, waits for its first stderr
/// line containing `marker` and returns the word after it — the
/// `host:port` the child bound. The rest of the child's stderr is read
/// and discarded so its log lines can never fill the pipe.
pub fn spawn_listening(
    bin: &Path,
    args: &[String],
    marker: &str,
) -> Result<(ChildGuard, String), String> {
    let mut child = Command::new(bin)
        .args(args)
        // The children log at their default level, as an operator's would.
        .env_remove("FIRM_LOG")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let (first_tx, first_rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        let mut first = Some(first_tx);
        loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if let Some(tx) = first.take() {
                        let _ = tx.send(line.clone());
                    }
                }
            }
        }
    });
    let guard = ChildGuard {
        child,
        stderr_reader: Some(reader),
    };
    let line = first_rx
        .recv_timeout(STARTUP_LIMIT)
        .map_err(|_| format!("{} printed no startup line", bin.display()))?;
    let addr = line
        .split(marker)
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("unexpected startup line from {}: {line:?}", bin.display()))?
        .to_string();
    Ok((guard, addr))
}

/// The product binaries the serve workloads talk to.
pub struct Bins {
    /// `firm-fleet` (the coordinator).
    pub fleet: PathBuf,
    /// `firm-fleet-worker`.
    pub worker: PathBuf,
    /// Seconds `cargo build` took — plain information, not a metric.
    pub build_s: f64,
}

/// Builds `firm-fleet` and `firm-fleet-worker` from the repo's root
/// workspace, with the profile this harness was built with, into the
/// target directory this harness runs from.
pub fn ensure_bins() -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe
        .ancestors()
        .find(|d| {
            d.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .ok_or_else(|| format!("{} is not under a cargo profile directory", exe.display()))?;
    let target_dir = profile_dir.parent().expect("profile dir has a parent");
    let release = profile_dir.ends_with("release");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.arg("build").arg("--offline").arg("--quiet");
    if release {
        cmd.arg("--release");
    }
    cmd.arg("--manifest-path")
        .arg(Path::new(REPO_ROOT).join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .args(["-p", "firm-fleet", "--bin", "firm-fleet-worker"])
        .args(["-p", "firm-serve", "--bin", "firm-fleet"])
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    let started = Instant::now();
    let status = cmd.status().map_err(|e| format!("run cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of the product binaries failed: {status}"
        ));
    }
    let bins = Bins {
        fleet: profile_dir.join("firm-fleet"),
        worker: profile_dir.join("firm-fleet-worker"),
        build_s: started.elapsed().as_secs_f64(),
    };
    for bin in [&bins.fleet, &bins.worker] {
        if !bin.exists() {
            return Err(format!("cargo build left no {}", bin.display()));
        }
    }
    Ok(bins)
}

/// One `firm-fleet-worker --listen` process on a kernel-assigned port.
pub fn spawn_worker(bins: &Bins) -> Result<(ChildGuard, String), String> {
    spawn_listening(
        &bins.worker,
        &["--listen".to_string(), "127.0.0.1:0".to_string()],
        "listening on ",
    )
}

/// A coordinator and its two TCP workers, all on loopback ports the
/// kernel chose.
pub struct Topology {
    /// `firm-fleet serve`.
    pub coordinator: ChildGuard,
    /// The `firm-fleet-worker --listen` processes behind it.
    pub workers: Vec<ChildGuard>,
    /// The coordinator's `host:port`.
    pub addr: String,
}

impl Topology {
    /// Spawns two workers, then `firm-fleet serve --workers 0 --remote
    /// w1 --remote w2` with the given service seed and retrain budget.
    /// `obs_out` asks the coordinator to write its `ops_report` there
    /// when it shuts down.
    pub fn spawn(
        bins: &Bins,
        seed: u64,
        train_steps: usize,
        obs_out: Option<&Path>,
    ) -> Result<Topology, String> {
        let mut workers = Vec::new();
        let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0", "--workers", "0"]
            .map(String::from)
            .to_vec();
        for _ in 0..2 {
            let (guard, addr) = spawn_worker(bins)?;
            workers.push(guard);
            args.extend(["--remote".to_string(), addr]);
        }
        args.extend(["--seed".to_string(), seed.to_string()]);
        args.extend(["--train-steps".to_string(), train_steps.to_string()]);
        if let Some(path) = obs_out {
            args.extend(["--obs-out".to_string(), path.display().to_string()]);
        }
        let (coordinator, addr) = spawn_listening(&bins.fleet, &args, "serving on ")?;
        Ok(Topology {
            coordinator,
            workers,
            addr,
        })
    }

    /// `utime + stime` of the coordinator and the workers so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(Some(self.coordinator.pid()))
            + self
                .workers
                .iter()
                .map(|w| cpu_seconds(Some(w.pid())))
                .sum::<f64>()
    }

    /// Peak resident memory of the coordinator, MiB.
    pub fn coordinator_rss_mib(&self) -> f64 {
        vm_hwm_mib(Some(self.coordinator.pid()))
    }

    /// Summed peak resident memory of the workers, MiB.
    pub fn workers_rss_mib(&self) -> f64 {
        self.workers.iter().map(|w| vm_hwm_mib(Some(w.pid()))).sum()
    }
}

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux architecture this repo builds on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// `utime + stime` (all threads) of a process from `/proc/<pid>/stat`,
/// in seconds; 0 when the process is gone. For the harness itself
/// (`None`) children it has already waited for are included.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let Ok(stat) = std::fs::read_to_string(proc_path(pid, "stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces and parentheses;
    // numbered fields resume after its closing parenthesis at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let own = ticks(14) + ticks(15);
    let reaped = if pid.is_none() {
        ticks(16) + ticks(17)
    } else {
        0.0
    };
    (own + reaped) / CLOCK_TICKS_PER_S
}

/// Resets this process's peak-resident-set mark to its current
/// resident set (`echo 5 > /proc/self/clear_refs`), so the next
/// [`vm_hwm_mib`] reads the peak since this call. Where the kernel
/// refuses, the mark simply keeps its older peak.
pub fn reset_own_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` (peak resident set) from `/proc/<pid>/status`, in MiB; 0
/// when the process is gone.
pub fn vm_hwm_mib(pid: Option<u32>) -> f64 {
    let Ok(status) = std::fs::read_to_string(proc_path(pid, "status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_proc_readings_are_positive() {
        // Burn a little CPU so utime is at least one tick.
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds(None) > 0.0);
        assert!(vm_hwm_mib(None) > 1.0);
        assert_eq!(cpu_seconds(Some(u32::MAX)), 0.0);
        assert_eq!(vm_hwm_mib(Some(u32::MAX)), 0.0);
    }

    /// A panic between spawn and shutdown must not leave a
    /// `firm-fleet*` process behind: the guards unwind with the stack.
    #[test]
    fn a_panic_leaves_no_orphan_product_process() {
        let bins = ensure_bins().expect("product binaries build");
        let (pid_tx, pid_rx) = mpsc::channel();
        let outcome = std::panic::catch_unwind(move || {
            let topology = Topology::spawn(&bins, 7, 16, None).expect("topology starts");
            let mut pids = vec![topology.coordinator.pid()];
            pids.extend(topology.workers.iter().map(ChildGuard::pid));
            pid_tx.send(pids).expect("receiver alive");
            panic!("the workload blew up mid-run");
        });
        assert!(outcome.is_err());
        let pids = pid_rx.recv().expect("pids were sent before the panic");
        assert_eq!(pids.len(), 3);
        for pid in pids {
            // Killed *and* waited for: not even a zombie entry remains.
            assert!(
                !Path::new(&format!("/proc/{pid}")).exists(),
                "pid {pid} survived the panic"
            );
        }
    }
}
