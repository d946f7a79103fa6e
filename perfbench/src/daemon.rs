//! The daemon under test: a child process running the serve library's
//! entry point (`Server::bind` + `Server::run`, as `f3m serve` does),
//! driven over TCP by one closed-loop client connection.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use f3m::serve::{Client, Request, ServeConfig, Server};
use f3m::trace::Json;

use crate::util::ms_since;

/// Worker threads of every daemon (the host has two CPUs).
pub const JOBS: usize = 2;

/// Response types that count as a failed operation.
const FAILED_TYPES: [&str; 4] = ["error", "busy", "overloaded", "superseded"];

/// Child-process entry: `serve [--snapshot <path>] [--resident-budget <bytes>]`.
/// Prints the bound address on stdout, then serves until `shutdown`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: JOBS,
        snapshot_path: flag("--snapshot").map(PathBuf::from),
        resident_budget: flag("--resident-budget")
            .map(|v| v.parse().map_err(|e| format!("--resident-budget: {e}")))
            .transpose()?,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{addr}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running daemon child. Dropping it without [`Daemon::shutdown`]
/// kills the child and waits for it.
pub struct Daemon {
    child: Option<Child>,
    client: Client,
    /// When the child was spawned.
    pub spawned: Instant,
}

/// One answered request.
pub struct Answer {
    pub ms: f64,
    pub raw: String,
    pub json: Json,
    pub ok: bool,
}

impl Daemon {
    pub fn spawn(snapshot: Option<&Path>, budget: Option<u64>) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(p) = snapshot {
            cmd.arg("--snapshot").arg(p);
        }
        if let Some(b) = budget {
            cmd.arg("--resident-budget").arg(b.to_string());
        }
        let spawned = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let connected = match read {
            Ok(n) if n > 0 => Client::connect(line.trim()).map_err(|e| format!("connect: {e}")),
            Ok(_) => Err("daemon exited before listening".to_string()),
            Err(e) => Err(format!("read daemon address: {e}")),
        };
        match connected {
            Ok(client) => Ok(Daemon {
                child: Some(child),
                client,
                spawned,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Sends one request and times the round trip.
    pub fn call(&mut self, req: Request) -> Result<Answer, String> {
        let env = f3m::serve::RequestEnvelope::of(req);
        let t = Instant::now();
        let raw = self.client.request_raw(&env)?;
        let ms = ms_since(t);
        let json = f3m::serve::protocol::parse_response(raw.as_bytes())?;
        let ty = json.get("type").and_then(Json::as_str).unwrap_or("");
        let ok = !FAILED_TYPES.contains(&ty);
        Ok(Answer { ms, raw, json, ok })
    }

    /// Peak resident set of the daemon process so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("daemon is running").id();
        crate::util::peak_rss_mb(&pid.to_string())
    }

    /// Graceful shutdown (the daemon saves its snapshot, if it has one),
    /// then waits for the child to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.call(Request::Shutdown)?;
        let mut child = self.child.take().expect("daemon is running");
        let status = child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if bye.json.get("type").and_then(Json::as_str) != Some("bye") || !status.success() {
            return Err(format!("daemon shutdown: {} ({status})", bye.raw));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
