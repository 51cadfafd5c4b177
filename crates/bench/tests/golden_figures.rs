//! Golden-output test for the figure binaries that drive the cycle model.
//!
//! Each binary's stdout must match its committed TSV under
//! `crates/bench/golden/` byte for byte. Together they cover the
//! row/weight/input-stationary dataflows, both PE-set designs, and the
//! conv, FC and attention simulators. The binaries are deterministic and
//! independent of `MERCURY_EXECUTOR`, which the children inherit.
//!
//! When a change is *meant* to move a number, regenerate the TSVs:
//!
//! ```text
//! for b in fig14_performance fig15_vgg13 fig18_dataflows ablation_sync_async; do
//!   cargo run -q --release -p mercury-bench --bin $b > crates/bench/golden/$b.tsv
//! done
//! ```

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: failed to start: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.tsv"));
    let want =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    let got = String::from_utf8(out.stdout).expect("TSV output is UTF-8");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: stdout differs from {} at line {}\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn fig14_performance_matches_golden() {
    check("fig14_performance", env!("CARGO_BIN_EXE_fig14_performance"));
}

#[test]
fn fig15_vgg13_matches_golden() {
    check("fig15_vgg13", env!("CARGO_BIN_EXE_fig15_vgg13"));
}

#[test]
fn fig18_dataflows_matches_golden() {
    check("fig18_dataflows", env!("CARGO_BIN_EXE_fig18_dataflows"));
}

#[test]
fn ablation_sync_async_matches_golden() {
    check(
        "ablation_sync_async",
        env!("CARGO_BIN_EXE_ablation_sync_async"),
    );
}
