//! Smoke tests for the `mictrend` CLI binary: each subcommand must run end
//! to end against a freshly simulated dataset file.

use std::path::PathBuf;
use std::process::Command;

fn mictrend() -> Command {
    // Cargo exposes the binary path to integration tests.
    Command::new(env!("CARGO_BIN_EXE_mictrend"))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mictrend-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn simulate_stats_analyze_series_roundtrip() {
    let data = temp_path("claims.mic");
    // simulate (small & fast).
    let out = mictrend()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "3",
            "--months",
            "18",
            "--patients",
            "120",
            "--diseases",
            "12",
            "--medicines",
            "16",
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(data.exists());

    // stats.
    let out = mictrend()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("months:"), "{stdout}");
    assert!(stdout.contains("records/month:"));

    // analyze (approximate, no seasonal: T = 18).
    let out = mictrend()
        .args([
            "analyze",
            "--data",
            data.to_str().unwrap(),
            "--no-seasonal",
            "--top",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("series analysed"), "{stdout}");
    assert!(stdout.contains("change point") || stdout.contains("change rates"));

    // series dump.
    let out = mictrend()
        .args([
            "series",
            "--data",
            data.to_str().unwrap(),
            "--kind",
            "disease",
            "--id",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "series failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("disease/D0"), "{stdout}");
    assert!(
        stdout.contains("2013-"),
        "calendar labels expected: {stdout}"
    );

    let _ = std::fs::remove_file(&data);
}

#[test]
fn bad_usage_fails_gracefully() {
    // Unknown command.
    let out = mictrend().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing required flag.
    let out = mictrend().args(["stats"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));

    // Nonexistent file.
    let out = mictrend()
        .args(["stats", "--data", "/nonexistent/x.mic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Bad numeric flag.
    let out = mictrend()
        .args(["simulate", "--out", "/tmp/x.mic", "--months", "abc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid number"));

    // Out-of-range series id on a real dataset.
    let data = temp_path("range.mic");
    let ok = mictrend()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--months",
            "14",
            "--patients",
            "40",
            "--diseases",
            "8",
            "--medicines",
            "10",
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = mictrend()
        .args([
            "series",
            "--data",
            data.to_str().unwrap(),
            "--kind",
            "disease",
            "--id",
            "9999",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let _ = std::fs::remove_file(&data);
}

#[test]
fn out_of_range_entity_id_is_a_clean_error() {
    // A well-formed file whose record names a disease past the `dims`
    // line: every command that loads it must exit with a parse error
    // (status 1), not an index-out-of-bounds panic (status 101).
    let data = temp_path("foreign-id.mic");
    std::fs::write(
        &data,
        "#mic-claims v1\nstart 2013 3\ndims 2 3\nmonth 0 1\nr 0 0|5:1|0|5\n",
    )
    .unwrap();
    let path = data.to_str().unwrap();
    for args in [
        vec!["analyze", "--data", path],
        vec!["append", "--data", path],
        vec!["series", "--data", path, "--kind", "disease", "--id", "0"],
    ] {
        let out = mictrend().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 5"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("disease id 5 out of range"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&data);
}

#[test]
fn simulate_rejects_worlds_too_small_to_generate() {
    // Too few months, diseases or medicines for the world generator must be
    // a clean error (status 1), not a panic (status 101), and write no file.
    let data = temp_path("too-small.mic");
    let path = data.to_str().unwrap();
    for (flag, value, what) in [
        ("--months", "12", "months"),
        ("--diseases", "3", "diseases"),
        ("--medicines", "5", "medicines"),
    ] {
        let out = mictrend()
            .args(["simulate", "--out", path, flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("world spec has {value} {what}")),
            "{flag} {value}: {stderr}"
        );
        assert!(!data.exists(), "{flag} {value} wrote a file");
    }
}
