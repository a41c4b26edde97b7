//! End-to-end tests of the `hull` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_hull(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hull"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning hull binary");
    // A child that rejects its arguments exits before reading stdin, so
    // this write can race an EPIPE; the exit status still tells the story.
    match child.stdin.as_mut().unwrap().write_all(input.as_bytes()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("writing child stdin: {e}"),
    }
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.success(),
    )
}

const SQUARE: &str = "0 0\n40 0\n0 40\n40 40\n20 20\n7 31\n";

fn edges_of(stdout: &str) -> Vec<Vec<u32>> {
    let mut edges: Vec<Vec<u32>> = stdout
        .lines()
        .map(|l| {
            let mut e: Vec<u32> = l.split_whitespace().map(|t| t.parse().unwrap()).collect();
            e.sort_unstable();
            e
        })
        .collect();
    edges.sort();
    edges
}

#[test]
fn square_hull_all_algorithms_agree() {
    let expected = edges_of(&run_hull(&["--algo", "chain"], SQUARE).0);
    assert_eq!(expected.len(), 4);
    assert!(
        expected.iter().all(|e| e.iter().all(|&v| v < 4)),
        "interior point on hull"
    );
    for algo in ["seq", "par", "rounds"] {
        let (stdout, _, ok) = run_hull(&["--algo", algo], SQUARE);
        assert!(ok, "{algo} failed");
        assert_eq!(edges_of(&stdout), expected, "algorithm {algo}");
    }
}

#[test]
fn stats_go_to_stderr() {
    let (stdout, stderr, ok) = run_hull(&["--stats"], SQUARE);
    assert!(ok);
    assert!(!stdout.contains("hull_facets"));
    assert!(stderr.contains("hull_facets=4"), "stderr: {stderr}");
    assert!(stderr.contains("visibility_tests="));
}

#[test]
fn three_d_input() {
    let input = "0 0 0\n9 0 0\n0 9 0\n0 0 9\n9 9 9\n2 2 2\n";
    let (stdout, _, ok) = run_hull(&["--dim", "3", "--algo", "par"], input);
    assert!(ok);
    let facets = edges_of(&stdout);
    // 5 extreme points (index 5 interior); each facet has 3 vertices < 5.
    assert!(facets
        .iter()
        .all(|f| f.len() == 3 && f.iter().all(|&v| v < 5)));
    // Euler for V=5 triangulated sphere: F = 2V - 4 = 6.
    assert_eq!(facets.len(), 6);
}

#[test]
fn bad_input_is_an_error() {
    let (_, stderr, ok) = run_hull(&[], "1 2\n3 4\n");
    assert!(!ok);
    assert!(stderr.contains("need at least"));
    let (_, stderr, ok) = run_hull(&[], "1 2 3\n4 5 6\n7 8 9\n10 11 12\n");
    assert!(!ok);
    assert!(stderr.contains("expected 2 coordinates"));
    let (_, stderr, ok) = run_hull(&["--algo", "warp"], SQUARE);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
}

#[test]
fn comments_and_blank_lines_ignored() {
    let input = "# square\n\n0 0\n40 0\n\n0 40\n# interior:\n20 20\n40 40\n";
    let (stdout, _, ok) = run_hull(&["--algo", "chain"], input);
    assert!(ok);
    assert_eq!(edges_of(&stdout).len(), 4);
}

#[test]
fn serve_and_route_flag_validation() {
    // A follower must not carry a WAL: on restart it resyncs from the
    // primary, and a stale local WAL would skew the 1:1 batch-index
    // mirror the replication protocol relies on.
    let (_, stderr, ok) = run_hull(&["serve", "--follow", "127.0.0.1:1", "--wal", "/tmp/w"], "");
    assert!(!ok);
    assert!(stderr.contains("--wal is primary-only"), "stderr: {stderr}");

    let (_, stderr, ok) = run_hull(&["serve", "--promote-after", "3"], "");
    assert!(!ok);
    assert!(
        stderr.contains("--promote-after only applies with --follow"),
        "stderr: {stderr}"
    );

    let (_, stderr, ok) = run_hull(&["route"], "");
    assert!(!ok);
    assert!(stderr.contains("at least one NODE"), "stderr: {stderr}");

    // Restart always takes the one bulk build; there is no knob for it.
    let (_, stderr, ok) = run_hull(&["serve", "--bulk-threshold", "1"], "");
    assert!(!ok);
    assert!(
        stderr.contains("unknown serve flag '--bulk-threshold'"),
        "stderr: {stderr}"
    );
}

/// Canonical facet geometry (sorted vertex coordinates per facet) of the
/// hull a restart over `dir`'s WAL serves on shard 0.
fn restart_canonical(dir: &std::path::Path) -> std::collections::BTreeSet<Vec<Vec<i64>>> {
    use convex_hull_suite::service::{HullService, ServiceConfig};
    let svc = HullService::new(ServiceConfig {
        dim: 2,
        shards: 1,
        wal_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    })
    .expect("restart over the WAL");
    let snap = svc.snapshot(0).unwrap();
    let flat = snap.flat_points();
    let out = snap
        .output()
        .facets
        .iter()
        .map(|f| {
            let mut verts: Vec<Vec<i64>> = f[..2]
                .iter()
                .map(|&v| flat[v as usize * 2..v as usize * 2 + 2].to_vec())
                .collect();
            verts.sort();
            verts
        })
        .collect();
    svc.shutdown();
    out
}

/// `hull compact` keeps exactly the live rows that are not strictly
/// inside the hull (vertices and boundary points, in arrival order) as
/// one WAL unit, and a restart over the compacted WAL serves the same
/// hull as before.
#[test]
fn compact_keeps_live_boundary_rows_in_one_unit() {
    use convex_hull_suite::core::seq::incremental_hull_run;
    use convex_hull_suite::geometry::{KernelCounts, PointSet, Sign};
    use convex_hull_suite::service::Journal;

    let dir = std::env::temp_dir().join(format!("chull-cli-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units: [&[[i64; 2]]; 3] = [
        &[[0, 0], [40, 0], [0, 40], [40, 40]],
        // (20, 0) lies on the hull edge (0,0)-(40,0); the rest are
        // interior.
        &[[20, 0], [10, 10], [30, 5], [25, 30], [5, 20]],
        &[[12, 14]],
    ];
    {
        let mut j = Journal::with_wal(2, &dir, 0).unwrap();
        for (i, unit) in units.iter().enumerate() {
            for p in unit.iter() {
                j.append(p).unwrap();
            }
            if i == 2 {
                // Delete the vertex (40, 40): (25, 30) becomes a vertex.
                j.append_tombstone(&[40, 40]).unwrap();
            }
            j.mark_batch().unwrap();
        }
        j.sync().unwrap();
    }
    let live: Vec<Vec<i64>> = units
        .iter()
        .flat_map(|u| u.iter())
        .filter(|p| **p != [40, 40])
        .map(|p| p.to_vec())
        .collect();
    // Scan oracle: a live row is kept unless it is strictly on the inner
    // side of every facet of offline Algorithm 2's hull.
    let run = incremental_hull_run(&PointSet::from_rows(2, &live));
    let mut counts = KernelCounts::default();
    let expected: Vec<Vec<i64>> = live
        .iter()
        .filter(|p| {
            run.facets.iter().zip(&run.alive).any(|(f, &alive)| {
                let s = f.plane.sign_point(p, &mut counts);
                alive && (s == Sign::Zero || s == f.visible_sign)
            })
        })
        .cloned()
        .collect();
    assert!(expected.contains(&vec![20, 0]), "boundary point dropped");
    assert!(!expected.contains(&vec![10, 10]), "interior point kept");

    let before = restart_canonical(&dir);
    let (stdout, stderr, ok) = run_hull(&["compact", "--wal", dir.to_str().unwrap()], "");
    assert!(ok, "compact failed: {stderr}");
    assert!(stdout.contains("-> 5 inserts / 1 unit"), "stdout: {stdout}");
    let j = Journal::with_wal(2, &dir, 0).unwrap();
    assert_eq!(j.batch_count(), 1, "compacted WAL is one unit");
    assert_eq!(j.insert_rows(), expected);
    drop(j);
    assert_eq!(
        restart_canonical(&dir),
        before,
        "compaction changed the hull"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM runs the same graceful path as a wire `Shutdown`: stop
/// accepting, drain the shards (sealing the journal tail), then exit 0
/// with the final stats — not a mid-write death.
#[cfg(target_os = "linux")]
#[test]
fn sigterm_drains_and_exits_cleanly() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hull"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--dim",
            "2",
            "--stats-json",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning hull serve");
    let mut lines = std::io::BufReader::new(child.stderr.take().unwrap()).lines();
    loop {
        let line = lines.next().expect("serve died early").expect("stderr");
        if line.starts_with("hull: listening on ") {
            break;
        }
    }
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("running kill")
        .success();
    assert!(ok, "kill -TERM failed");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let out = child.wait_with_output().expect("waiting for serve");
    assert!(out.status.success(), "SIGTERM exit must be clean: {out:?}");
    assert!(
        rest.iter()
            .any(|l| l.contains("termination signal received")),
        "stderr lines: {rest:?}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.trim_start().starts_with('{'),
        "--stats-json must still print final stats: {stdout}"
    );
}

#[test]
fn seed_changes_internal_order_not_hull() {
    let a = edges_of(&run_hull(&["--seed", "1"], SQUARE).0);
    let b = edges_of(&run_hull(&["--seed", "999"], SQUARE).0);
    assert_eq!(a, b, "hull must not depend on the insertion seed");
}
