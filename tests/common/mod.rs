//! Helpers shared by the integration tests that run `hull serve` as a
//! child process.

use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::mpsc;

/// SIGKILL a child process on drop: chaos teardown must not leak
/// servers when an assertion fails mid-test.
pub struct KillOnDrop(pub std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `hull serve` with `extra` flags and parse the bound address
/// off its stderr announcement. The rest of its stderr is echoed, and
/// handed line by line to the returned receiver.
pub fn spawn_hull_serve(extra: &[&str]) -> (KillOnDrop, SocketAddr, mpsc::Receiver<String>) {
    spawn_announced(
        std::process::Command::new(env!("CARGO_BIN_EXE_hull")),
        extra,
    )
}

/// [`spawn_hull_serve`] through `launcher`, a command that runs `hull`
/// with whatever arguments are appended to it: the binary itself, or a
/// wrapper such as `sh -c '...; exec "$0" "$@"' HULL`.
pub fn spawn_announced(
    mut launcher: std::process::Command,
    extra: &[&str],
) -> (KillOnDrop, SocketAddr, mpsc::Receiver<String>) {
    let cmd = launcher
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--dim",
            "2",
            "--shards",
            "1",
        ])
        .args(extra)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("spawning hull serve");
    let stderr = child.stderr.take().unwrap();
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("hull serve exited before announcing its address")
            .expect("child stderr");
        if let Some(rest) = line.strip_prefix("hull: listening on ") {
            break rest.trim().parse().expect("announced address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for l in lines.map_while(Result::ok) {
            eprintln!("[child] {l}");
            let _ = tx.send(l);
        }
    });
    (KillOnDrop(child), addr, rx)
}
