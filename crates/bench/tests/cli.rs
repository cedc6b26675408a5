//! The `experiments` binary validates its whole command line before it
//! runs anything: an unknown section or flag, or a value out of range,
//! exits 2 with the usage line.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

#[test]
fn refused_command_lines_exit_2_with_the_usage_line() {
    let refused: [&[&str]; 8] = [
        // Retired sections: their gates run as tests now.
        &["zipf"],
        &["rwmix"],
        // Retired flags.
        &["fig6a", "--skew", "1"],
        &["fig6a", "--cache", "6"],
        // Explicit shard counts the section cannot run.
        &["pipeline", "--shards", "1"],
        &["hetero", "--shards", "1"],
        &["fig6a", "--shards", "0"],
        &["fig6a", "--scale", "0"],
    ];
    for args in refused {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}

#[test]
fn fig6a_runs() {
    let out = experiments(&["fig6a"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Figure 6a"));
}
