//! Tier-1 gate: the `parallel` feature must build and its bit-exactness
//! properties must pass.
//!
//! A plain `cargo test` compiles without the feature, so the rayon
//! dispatch paths would otherwise only be exercised when someone remembers
//! to pass `--features parallel`. This gate spawns exactly that: the root
//! property suite (which contains the parallel-vs-sequential equivalence
//! properties) under `--features parallel`, in a separate target directory
//! so the nested cargo does not contend for the outer build lock.

#![cfg(not(feature = "parallel"))]

use std::process::Command;

#[test]
fn parallel_feature_tests_pass() {
    let root = xtask::default_workspace_root();
    let output = Command::new(env!("CARGO"))
        .args(["test", "-q", "--features", "parallel", "--test", "properties"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/parallel-gate"))
        .output()
        .expect("spawn nested cargo test");
    assert!(
        output.status.success(),
        "`cargo test --features parallel --test properties` failed:\n--- stdout\n{}\n--- stderr\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}
