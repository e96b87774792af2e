//! The deployment under test: an on-disk wallet home built through the
//! production write path, served by a **separate** `drbac serve`
//! process, observed from outside through `/proc` and the public
//! `Request::Stats` scrape.

use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drbac::core::{SimClock, WalletAddr};
use drbac::index::{DelegationIndex, FileTable};
use drbac::net::proto::{Reply, Request};
use drbac::net::{TcpConfig, TcpTransport, Transport};
use drbac::obs::Snapshot;
use drbac::store::WalletStore;
use drbac::wallet::DurableWallet;

use crate::world::World;

/// The wallet address `drbac --home <dir>` opens its wallet under.
const CLI_WALLET_ADDR: &str = "drbac-cli";

/// A scratch directory removed on drop — on success, error return and
/// panic unwind alike.
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// Creates `<out>/tmp-<pid>`, inside the checkout so the benchmark
    /// reads and writes nowhere else.
    pub fn create(out: &Path) -> io::Result<TempRoot> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        // A leftover from a killed run with a recycled pid is stale.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(TempRoot(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Opens the durable indexed wallet of `home` exactly as `drbac --home`
/// does (`src/bin/drbac.rs`, `Context::load`).
pub fn open_home(home: &Path) -> Result<DurableWallet, String> {
    let store = Arc::new(WalletStore::open_dir(home.join("store")).map_err(|e| e.to_string())?);
    let index = open_index(home)?;
    let (wallet, boot) =
        DurableWallet::open_indexed(CLI_WALLET_ADDR, SimClock::new(), store, index)
            .map_err(|e| e.to_string())?;
    if !boot.lazy && boot.recovery.is_some() {
        return Err("indexed boot fell back to a full replay: the index is stale".into());
    }
    Ok(wallet)
}

/// Opens `<home>/index` (the `FileTable` + `DelegationIndex` pair).
pub fn open_index(home: &Path) -> Result<Arc<DelegationIndex>, String> {
    let table = FileTable::open_dir(home.join("index")).map_err(|e| e.to_string())?;
    DelegationIndex::open(Box::new(table))
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Builds the wallet home for `world` at `home` through the production
/// write path: one `DurableWallet::publish` per certificate with the
/// default `group_commit = 1` (an fsync per write), then the index
/// delta folded into its base file — the automatic fold needs 65,536
/// delta ops, more than a world that fits the set-up budget can reach,
/// and a served home that never read its base file would bypass the
/// block-read path every long-lived deployment runs.
pub fn build_home(world: &World, home: &Path) -> Result<(), String> {
    let wallet = open_home(home)?;
    for cert in &world.certs {
        wallet
            .publish(Arc::clone(cert), Vec::new())
            .map_err(|e| format!("publish into the home: {e}"))?;
    }
    let index = wallet
        .index()
        .ok_or("the home's index detached during the build")?;
    index.compact().map_err(|e| e.to_string())?;
    index.flush().map_err(|e| e.to_string())
}

/// Copies a home's `store/` and `index/` files (the in-process replica
/// the traced run replays ops on).
pub fn copy_home(from: &Path, to: &Path) -> io::Result<()> {
    for sub in ["store", "index"] {
        fs::create_dir_all(to.join(sub))?;
        for entry in fs::read_dir(from.join(sub))? {
            let entry = entry?;
            fs::copy(entry.path(), to.join(sub).join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A running `drbac serve` child. Dropping it kills (SIGKILL) and
/// reaps the process, so no exit path of the harness leaks a daemon.
pub struct Daemon {
    child: Child,
    pub addr: WalletAddr,
    /// Spawn → first `Health` reply with `ok`.
    pub boot_ready: Duration,
}

impl Daemon {
    /// Spawns `<bin> --home <home> serve 127.0.0.1:<port>` with the
    /// default `DaemonConfig` and waits until it answers `Health`. The
    /// port is chosen by bind-and-release; losing the race for it (the
    /// child exits before answering) is retried on a fresh port.
    pub fn spawn(bin: &Path, home: &Path, transport: &TcpTransport) -> Result<Daemon, String> {
        let mut last = String::new();
        for _ in 0..5 {
            let port = free_port().map_err(|e| format!("no free loopback port: {e}"))?;
            let listen = format!("127.0.0.1:{port}");
            let start = Instant::now();
            let child = Command::new(bin)
                .arg("--home")
                .arg(home)
                .arg("serve")
                .arg(&listen)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut daemon = Daemon {
                child,
                addr: listen.as_str().into(),
                boot_ready: Duration::ZERO,
            };
            match daemon.wait_ready(transport, start) {
                Ok(()) => return Ok(daemon),
                Err(e) => last = e,
            }
        }
        Err(format!("daemon never became ready: {last}"))
    }

    fn wait_ready(&mut self, transport: &TcpTransport, start: Instant) -> Result<(), String> {
        let deadline = start + Duration::from_secs(20);
        loop {
            if let Ok(Reply::Health(h)) = transport.request(&self.addr, Request::Health) {
                if h.ok {
                    self.boot_ready = start.elapsed();
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("drbac serve exited early ({status})"));
            }
            if Instant::now() > deadline {
                return Err("no Health reply within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrapes the daemon's metrics registry over the wire.
    pub fn scrape(&self, transport: &TcpTransport) -> Result<Snapshot, String> {
        match transport.request(&self.addr, Request::Stats) {
            Ok(Reply::Stats(snapshot)) => Ok(snapshot),
            other => Err(format!("Stats scrape failed: {other:?}")),
        }
    }

    /// SIGKILLs and reaps the daemon: a process crash. (The OS page
    /// cache survives, so this tests process-crash durability, not
    /// power loss.)
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// The client transport every product caller uses (`drbac --remote`).
pub fn client_transport() -> Arc<TcpTransport> {
    Arc::new(TcpTransport::new(TcpConfig::default()))
}

/// Resource counters of one process, summed over its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU time (`/proc/<pid>/task/*/schedstat`, field 1).
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Reads the counters of `pid` (`None`: this process). A thread
    /// that exits between two samples takes its counts with it; the
    /// daemon's pumps and workers live as long as their connections.
    pub fn read(pid: Option<u32>) -> ProcSample {
        let root = match pid {
            Some(pid) => format!("/proc/{pid}/task"),
            None => "/proc/self/task".to_string(),
        };
        let mut sample = ProcSample::default();
        let Ok(tasks) = fs::read_dir(&root) else {
            return sample;
        };
        for task in tasks.flatten() {
            if let Ok(s) = fs::read_to_string(task.path().join("schedstat")) {
                sample.cpu_ns += first_number(&s);
            }
            if let Ok(s) = fs::read_to_string(task.path().join("status")) {
                sample.ctx_switches += status_field(&s, "voluntary_ctxt_switches:")
                    + status_field(&s, "nonvoluntary_ctxt_switches:");
            }
        }
        sample
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Resident set size of `pid` (`None`: this process), in MiB.
pub fn rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = fs::read_to_string(path).unwrap_or_default();
    status_field(&status, "VmRSS:") as f64 / 1024.0
}

fn first_number(s: &str) -> u64 {
    s.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// The first number after `key` on the line of `status` that starts
/// with it (0 when absent).
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(first_number)
        .unwrap_or(0)
}

/// Where and on what the benchmark ran, recorded in the result file.
pub struct Environment {
    pub git_commit: String,
    pub kernel: String,
    /// CPUs online in the machine.
    pub nproc: usize,
    /// `Cpus_allowed_list` of this process: one CPU when pinned.
    pub allowed_cpus: String,
    /// Filesystem type of the directory the homes live in.
    pub home_fs: String,
}

impl Environment {
    pub fn probe(home_root: &Path) -> Environment {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let allowed_cpus = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let nproc = fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Environment {
            git_commit: git_commit(),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            nproc,
            allowed_cpus,
            home_fs: fs_type(home_root),
        }
    }

    /// The single CPU the process tree is pinned to, if it is.
    pub fn pinned_cpu(&self) -> Option<usize> {
        self.allowed_cpus.parse().ok()
    }
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout (the
/// driver's checkout is not one).
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`: the longest mount
/// point in `/proc/self/mounts` that prefixes it.
fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}
