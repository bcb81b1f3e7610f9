//! Serving processes. The end-to-end runs serve from child processes
//! (this same executable, `perfbench serve <role> ...`) so that peak
//! resident memory covers the server side only, and so that every run
//! gets a fresh server on its own ephemeral port.
//!
//! A child prints `corpus` once its inputs exist and `listening ADDR`
//! once it serves, then serves until its stdin closes. A watcher thread
//! exits the child on that EOF whatever the main thread is doing, so a
//! child never outlives its parent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlsh_core::{load_snapshot, LoadMode};
use hlsh_families::PStableL2;
use hlsh_server::{
    Coordinator, CoordinatorConfig, LiveLshService, QueryService, ServerConfig, ShardNodeService,
    ShardedLshService,
};
use hlsh_vec::L2;

use crate::inputs::{self, Size};

/// Every child still running, by pid, so the run's wall-clock bound can
/// stop them all.
static CHILDREN: Mutex<Vec<(u32, Child)>> = Mutex::new(Vec::new());

/// Kills and reaps every child still registered.
pub fn kill_all() {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

/// A serving child process.
pub struct ServerProc {
    pid: u32,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `perfbench serve <args>`.
    pub fn spawn(args: &[String]) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // One malloc arena: on `churn` every mutation runs on a thread of
        // its own, and with glibc's per-thread arenas the peak resident
        // memory depended on which arenas those threads happened to
        // fill: 131 to 167 MiB between runs, against a steady 99 MiB
        // with one arena.
        let mut child = Command::new(exe)
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout")?;
        let (tx, lines) = channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        CHILDREN.lock().unwrap_or_else(|e| e.into_inner()).push((pid, child));
        Ok(ServerProc { pid, stdin, lines, addr: String::new() })
    }

    /// Waits for the child's next stdout line, which must start with
    /// `prefix`; returns the rest of it.
    pub fn expect(&self, prefix: &str, within: Duration) -> Result<String, String> {
        let line = self
            .lines
            .recv_timeout(within)
            .map_err(|_| format!("server {} did not print {prefix:?} in time", self.pid))?;
        line.strip_prefix(prefix)
            .map(|rest| rest.trim().to_string())
            .ok_or_else(|| format!("server {} printed {line:?}, expected {prefix:?}", self.pid))
    }

    /// Waits for the `listening ADDR` line and records the address.
    pub fn wait_listening(&mut self, within: Duration) -> Result<(), String> {
        self.addr = self.expect("listening", within)?;
        Ok(())
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("read /proc/{}/status: {e}", self.pid))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    /// Closes the child's stdin (it exits on EOF) and reaps it; kills it
    /// if it has not exited within five seconds.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        drop(self.stdin.take());
        let child = {
            let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
            children.iter().position(|(pid, _)| *pid == self.pid).map(|i| children.remove(i).1)
        };
        let Some(mut child) = child else { return };
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// What a serving child serves.
pub enum Role {
    /// Frozen sharded rNNR index plus top-k ladder.
    Frozen,
    /// Living (LSM-segmented) rNNR index plus top-k ladder.
    Live,
    /// Shard node `shard`, cold-started from `snapshot`.
    Node { snapshot: String, shard: u32 },
    /// Coordinator over the shard nodes at `nodes` (list order = shard id).
    Coord { nodes: Vec<String> },
}

impl Role {
    /// Command-line arguments for `perfbench serve`.
    pub fn args(&self, size: Size, seed: u64) -> Vec<String> {
        let mut args = match self {
            Role::Frozen => vec!["frozen".to_string()],
            Role::Live => vec!["live".to_string()],
            Role::Node { snapshot, shard } => {
                vec!["node".into(), snapshot.clone(), shard.to_string()]
            }
            Role::Coord { nodes } => vec!["coord".into(), nodes.join(",")],
        };
        args.extend(["--size".into(), size.name.into(), "--seed".into(), seed.to_string()]);
        args
    }

    fn parse(args: &[String]) -> Option<(Role, Size, u64)> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                flags.insert(name, it.next()?.clone());
            } else {
                positional.push(a.clone());
            }
        }
        let size = Size::parse(flags.get("size")?)?;
        let seed = flags.get("seed")?.parse().ok()?;
        let role = match positional.first()?.as_str() {
            "frozen" => Role::Frozen,
            "live" => Role::Live,
            "node" => Role::Node {
                snapshot: positional.get(1)?.clone(),
                shard: positional.get(2)?.parse().ok()?,
            },
            "coord" => {
                Role::Coord { nodes: positional.get(1)?.split(',').map(String::from).collect() }
            }
            _ => return None,
        };
        Some((role, size, seed))
    }
}

/// Builds the service a role serves. Frozen and live roles print
/// `corpus` once the corpus exists, before the build starts.
pub fn build_service(role: &Role, size: Size, seed: u64) -> Result<Arc<dyn QueryService>, String> {
    let announce = || {
        println!("corpus");
        let _ = std::io::stdout().flush();
    };
    Ok(match role {
        Role::Frozen => {
            let data = inputs::corpus(size, seed);
            announce();
            let preset = inputs::preset(size);
            let rnnr = preset.build_rnnr(data.clone());
            let topk = preset.build_topk(data);
            Arc::new(ShardedLshService::new(rnnr, Some(topk), size.dim))
        }
        Role::Live => {
            let data = inputs::corpus(size, seed);
            announce();
            let preset = inputs::preset(size);
            let rnnr = preset.build_live_rnnr(data.clone());
            let topk = preset.build_live_topk(data);
            Arc::new(LiveLshService::new(rnnr, Some(topk)))
        }
        Role::Node { snapshot, shard } => {
            announce();
            let loaded = load_snapshot::<PStableL2, L2>(Path::new(snapshot), LoadMode::Read)
                .map_err(|e| format!("load snapshot {snapshot}: {e}"))?;
            let inner = ShardedLshService::new(loaded.rnnr, loaded.topk, size.dim);
            Arc::new(ShardNodeService::new(inner, *shard))
        }
        Role::Coord { nodes } => {
            announce();
            Arc::new(
                Coordinator::connect(nodes, CoordinatorConfig::default())
                    .map_err(|e| format!("coordinator connect: {e}"))?,
            )
        }
    })
}

/// Entry point of `perfbench serve ...`.
pub fn serve_main(args: &[String]) -> i32 {
    // Exit as soon as the parent closes our stdin (or dies).
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) => {}
            }
        }
    });
    let Some((role, size, seed)) = Role::parse(args) else {
        eprintln!(
            "usage: perfbench serve frozen|live|node SNAPSHOT SHARD|coord ADDRS --size S --seed N"
        );
        return 2;
    };
    let service = match build_service(&role, size, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench serve: {e}");
            return 1;
        }
    };
    let server = match hlsh_server::spawn(service, "127.0.0.1:0", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench serve: bind: {e}");
            return 1;
        }
    };
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}
