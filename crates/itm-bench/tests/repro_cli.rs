//! CLI contract tests for the `repro` binary: bad invocations must exit
//! with status 2 *before* any expensive work, for both `--out` and
//! `--trace` (the two output-path preflights share one contract).
//!
//! Unwritable paths are made via ENOTDIR — a path whose parent is a
//! regular file — because permission bits don't stop a root test runner.

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory unique to this test process.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A path that cannot be created: its parent is a regular file.
fn unwritable(name: &str) -> String {
    let blocker = scratch().join(format!("blocker-{name}"));
    std::fs::write(&blocker, b"not a directory").unwrap();
    blocker.join(name).to_string_lossy().into_owned()
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unwritable_out_dir_exits_2() {
    let out = repro(&["--exp", "map", "--out", &unwritable("outdir")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot create output dir"), "{err}");
}

#[test]
fn unwritable_trace_file_exits_2() {
    let out_dir = scratch().join("trace-ok-out");
    let out = repro(&[
        "--exp",
        "map",
        "--out",
        out_dir.to_str().unwrap(),
        "--trace",
        &unwritable("trace.json"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    // The preflight fires before the substrate build starts.
    assert!(err.contains("is not writable"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn unwritable_audit_file_exits_2() {
    let out_dir = scratch().join("audit-ok-out");
    let target = format!("out={}", unwritable("quality.json"));
    let out = repro(&[
        "--exp",
        "map",
        "--out",
        out_dir.to_str().unwrap(),
        "--audit",
        &target,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    // The preflight fires before the substrate build starts.
    assert!(err.contains("is not writable"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn unknown_audit_sub_option_exits_2() {
    for bad in ["frobnicate=1", "out=", "quality.json"] {
        let out = repro(&["--exp", "map", "--audit", bad]);
        assert_eq!(out.status.code(), Some(2), "--audit {bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown sub-option"), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
        assert!(!err.contains("building substrate"), "{err}");
    }
}

#[test]
fn audit_with_non_map_experiment_exits_2() {
    let out = repro(&["--exp", "pathlen", "--audit"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("map-building experiment"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn bad_threads_exits_2() {
    for bad in ["0", "eight"] {
        let out = repro(&["--threads", bad]);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--threads expects a positive integer"),
            "{err}"
        );
    }
}

#[test]
fn unknown_experiment_exits_2() {
    let out = repro(&["--exp", "definitely-not-an-experiment"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_fault_profile_exits_2_with_usage() {
    let out = repro(&["--exp", "map", "--faults", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("neither a profile"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    // The rejection fires before any expensive work.
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn unreadable_fault_file_exits_2_with_usage() {
    let missing = scratch().join("no-such-plan.json");
    let out = repro(&["--faults", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nor a readable plan file"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn malformed_fault_file_exits_2() {
    let dir = scratch();
    let garbled = dir.join("garbled-plan.json");
    std::fs::write(&garbled, b"{ this is not json").unwrap();
    let out = repro(&["--faults", garbled.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse plan file"), "{err}");

    // Parseable but invalid: rates above 1 fail validation.
    let invalid = dir.join("invalid-plan.json");
    std::fs::write(&invalid, br#"{"loss": 2.0}"#).unwrap();
    let out = repro(&["--faults", invalid.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid plan"), "{err}");
}

#[test]
fn named_profiles_and_plan_files_are_accepted() {
    let out_dir = scratch().join("faults-light-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "11",
        "--faults",
        "light",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let summary = std::fs::read_to_string(out_dir.join("map_summary.json")).unwrap();
    assert!(
        summary.contains("\"faults\""),
        "faulted summary lacks accounting: {summary}"
    );

    // A custom plan file works end to end; `{}` is the valid clean plan.
    let plan = scratch().join("clean-plan.json");
    std::fs::write(&plan, b"{}").unwrap();
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "11",
        "--faults",
        plan.to_str().unwrap(),
        "--out",
        scratch().join("faults-file-out").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn faults_default_is_off_and_byte_identical() {
    let plain_dir = scratch().join("faults-default-out");
    let off_dir = scratch().join("faults-off-out");
    let base = ["--exp", "map", "--size", "small", "--seed", "23", "--out"];
    let mut plain_args: Vec<&str> = base.to_vec();
    let plain_path = plain_dir.to_str().unwrap().to_owned();
    plain_args.push(&plain_path);
    let out = repro(&plain_args);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let off_path = off_dir.to_str().unwrap().to_owned();
    let mut off_args: Vec<&str> = base.to_vec();
    off_args.push(&off_path);
    off_args.extend(["--faults", "off"]);
    let out = repro(&off_args);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let plain = std::fs::read(plain_dir.join("map_summary.json")).unwrap();
    let off = std::fs::read(off_dir.join("map_summary.json")).unwrap();
    assert_eq!(plain, off, "--faults off is not the no-flag pipeline");
    assert!(!String::from_utf8_lossy(&off).contains("\"faults\""));
}

#[test]
fn metrics_run_surfaces_fault_accounting() {
    let out_dir = scratch().join("metrics-faults-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "7",
        "--metrics",
        "--faults",
        "light",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(out_dir.join("metrics.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();

    // The per-technique fault ledger reaches metrics.json, not only the
    // map summary, and its arithmetic holds: issued = observed +
    // degraded + lost for every technique.
    let faults = match v.get("faults") {
        Some(serde_json::Value::Object(m)) => m,
        other => panic!("metrics.json lacks the faults section: {other:?}"),
    };
    assert!(!faults.is_empty());
    for name in ["cache_probe", "root_crawl", "ecs_mapping"] {
        assert!(
            faults.get(name).is_some(),
            "no fault row for {name}: {text}"
        );
    }
    for (technique, st) in faults.iter() {
        let field = |k: &str| {
            st.get(k)
                .and_then(|x| x.as_u64())
                .unwrap_or_else(|| panic!("faults.{technique}.{k} missing"))
        };
        assert_eq!(
            field("issued"),
            field("observed") + field("degraded") + field("lost"),
            "fault ledger does not balance for {technique}"
        );
    }

    // --metrics also turns on allocation profiling, so the resource
    // section rides along.
    let resources = v.get("resources").expect("metrics.json lacks resources");
    assert!(
        resources
            .get("tracked")
            .and_then(|t| t.get("total_bytes"))
            .and_then(|b| b.as_u64())
            .unwrap_or(0)
            > 0,
        "no tracked allocations: {text}"
    );

    // A clean metrics run carries neither key-with-null nor empty object:
    // the faults key is simply absent.
    let clean_dir = scratch().join("metrics-clean-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "7",
        "--metrics",
        "--out",
        clean_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let clean = std::fs::read_to_string(clean_dir.join("metrics.json")).unwrap();
    assert!(!clean.contains("\"faults\""), "{clean}");
}

#[test]
fn bench_record_rows_are_schema_versioned_and_reproducible() {
    let file = scratch().join("bench-repro.json");
    let path = file.to_str().unwrap();
    for _ in 0..2 {
        let out = repro(&["--bench-record", "--size", "small", "--bench-out", path]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    let text = std::fs::read_to_string(&file).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v.get("schema_version").and_then(|s| s.as_u64()), Some(1));
    let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
    assert_eq!(rows.len(), 2, "append did not accumulate: {text}");

    for row in rows {
        assert_eq!(row.get("schema_version").and_then(|s| s.as_u64()), Some(1));
        assert_eq!(row.get("size").and_then(|s| s.as_str()), Some("small"));
        assert_eq!(row.get("seed").and_then(|s| s.as_u64()), Some(42));
        // bench-record pins one worker unless --threads is explicit.
        assert_eq!(row.get("threads").and_then(|t| t.as_u64()), Some(1));
        let top = row.get("top_phases").and_then(|t| t.as_array()).unwrap();
        assert!(!top.is_empty() && top.len() <= 3, "{row}");
        for p in top {
            assert!(p.get("phase").and_then(|x| x.as_str()).is_some());
            assert!(p.get("total_bytes").and_then(|x| x.as_u64()).is_some());
        }
    }

    // Two separate processes, same seed and threads: every deterministic
    // field matches exactly. Only wall time, OS RSS, and shard skew
    // (timing-dependent) may differ.
    let nondeterministic = ["build_ms", "peak_rss_bytes", "shard_skew_x1000"];
    let (serde_json::Value::Object(a), serde_json::Value::Object(b)) = (&rows[0], &rows[1]) else {
        panic!("rows are not objects: {text}");
    };
    assert_eq!(a.len(), b.len());
    for (key, value) in a.iter() {
        if nondeterministic.contains(&key.as_str()) {
            continue;
        }
        assert_eq!(
            Some(value),
            b.get(key),
            "deterministic field {key} drifted between runs"
        );
    }
    let peak = a
        .get("tracked_peak_bytes")
        .and_then(|p| p.as_u64())
        .unwrap();
    assert!(peak > 0, "profiled build tracked no memory");
}

#[test]
fn bench_record_bad_invocations_exit_2() {
    // Unknown size name.
    let out = repro(&["--bench-record", "--size", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown size"), "{err}");

    // Size lists are a bench-record-only syntax.
    let out = repro(&["--exp", "map", "--size", "small,default"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --bench-baseline requires a path.
    let out = repro(&["--bench-record", "--bench-baseline"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unwritable trajectory file fails the preflight before any build.
    let out = repro(&[
        "--bench-record",
        "--size",
        "small",
        "--bench-out",
        &unwritable("bench.json"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("building substrate"), "{err}");

    // An existing trajectory with a foreign schema version is an error,
    // not something to silently rewrite.
    let stale = scratch().join("bench-stale.json");
    std::fs::write(&stale, br#"{"schema_version": 99, "rows": []}"#).unwrap();
    let out = repro(&[
        "--bench-record",
        "--size",
        "small",
        "--bench-out",
        stale.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema_version"), "{err}");
}

#[test]
fn unknown_size_exits_2_with_usage() {
    let out = repro(&["--size", "lrage"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --size \"lrage\""), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    // The rejection fires before any expensive work: a typo'd size must
    // never silently run (and mislabel) a default-size build.
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn unknown_size_is_checked_before_filesystem_work() {
    // With the old silent-default behavior this invocation would have
    // failed on the unwritable out dir; the size check must win.
    let out = repro(&["--size", "lrage", "--out", &unwritable("size-order")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --size"), "{err}");
    assert!(!err.contains("cannot create output dir"), "{err}");
}

#[test]
fn size_missing_value_exits_2() {
    // At the end of the argument list…
    let out = repro(&["--exp", "map", "--size"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--size expects"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");

    // …and when the next token is another flag (which sibling flags like
    // --bench-out already rejected; --size silently meant "default").
    let out = repro(&["--size", "--metrics"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--size expects"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn bench_record_rejects_unknown_comma_list_entry() {
    let out = repro(&["--bench-record", "--size", "small,lrage"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown size \"lrage\""), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn valid_sizes_are_unaffected_by_the_size_check() {
    // `small` still runs end to end (pathlen is substrate-only and fast).
    let out = repro(&[
        "--exp",
        "pathlen",
        "--size",
        "small",
        "--out",
        scratch().join("size-ok-out").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn snapshot_with_non_map_experiment_exits_2() {
    let out = repro(&["--exp", "pathlen", "--snapshot"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("map-building experiment"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn unwritable_snapshot_file_exits_2_before_build() {
    let out = repro(&[
        "--exp",
        "map",
        "--out",
        scratch().join("snap-ok-out").to_str().unwrap(),
        "--snapshot",
        &unwritable("map.snap"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("is not writable"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");
}

#[test]
fn malformed_query_specs_exit_2() {
    // Unknown kind, wrong arity, and bare --query are all usage errors
    // caught before the snapshot is even opened.
    for spec in [
        vec!["--query"],
        vec!["--query", "bogus", "x"],
        vec!["--query", "point", "pfx0"],
        vec!["--query", "reverse"],
        vec!["--query", "route", "0", "1", "2"],
    ] {
        let out = repro(&spec);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--query expects"), "{err}");
    }
}

#[test]
fn query_against_missing_snapshot_exits_2() {
    let out = repro(&[
        "--query",
        "route",
        "0",
        "--snapshot",
        scratch().join("no-such.snap").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open snapshot"), "{err}");
}

#[test]
fn diverging_modes_are_mutually_exclusive() {
    for spec in [
        vec!["--bench-record", "--bench-query"],
        vec!["--bench-query", "--query", "route", "0"],
        vec!["--bench-record", "--query", "route", "0"],
    ] {
        let out = repro(&spec);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("mutually exclusive"), "{err}");
    }
}

#[test]
fn snapshot_writes_queries_answer_and_corruption_is_rejected() {
    let dir = scratch().join("snapshot-e2e-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "17",
        "--out",
        dir.to_str().unwrap(),
        "--snapshot",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let snap_path = dir.join("map.snap");
    let snap = std::fs::read(&snap_path).unwrap();
    assert!(!snap.is_empty());

    // Route queries answer off the snapshot with no substrate build.
    let out = repro(&[
        "--query",
        "route",
        "0",
        "--snapshot",
        snap_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("building substrate"), "{err}");
    assert!(err.contains("neighbor(s)"), "{err}");

    // A resolvable but unmapped point query is exit 1, not an error.
    let out = repro(&[
        "--query",
        "point",
        "pfx0",
        "svc0",
        "--snapshot",
        snap_path.to_str().unwrap(),
    ]);
    assert!(matches!(out.status.code(), Some(0) | Some(1)), "{out:?}");

    // One flipped byte anywhere makes the snapshot unopenable.
    let mut bad = snap.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    let bad_path = dir.join("corrupt.snap");
    std::fs::write(&bad_path, &bad).unwrap();
    let out = repro(&[
        "--query",
        "route",
        "0",
        "--snapshot",
        bad_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum"), "{err}");
}

#[test]
fn bench_query_records_a_schema_versioned_row() {
    let file = scratch().join("bench-query.json");
    let path = file.to_str().unwrap();
    let out = repro(&["--bench-query", "--size", "small", "--bench-out", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("queries/sec"), "{err}");

    let text = std::fs::read_to_string(&file).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v.get("schema_version").and_then(|s| s.as_u64()), Some(1));
    let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
    assert_eq!(rows.len(), 1, "{text}");
    let row = &rows[0];
    assert_eq!(row.get("size").and_then(|s| s.as_str()), Some("small"));
    assert!(row.get("qps").and_then(|q| q.as_u64()).unwrap_or(0) > 0);
    assert!(row.get("hits").and_then(|h| h.as_u64()).unwrap_or(0) > 0);
    assert!(
        row.get("snapshot_bytes")
            .and_then(|b| b.as_u64())
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn epoch_bad_invocations_exit_2_before_any_build() {
    // Zero epochs, garbage counts, and a missing value are usage errors.
    for bad in ["0", "three", "-1", ""] {
        let out = if bad.is_empty() {
            repro(&["--epochs"])
        } else {
            repro(&["--epochs", bad])
        };
        assert_eq!(out.status.code(), Some(2), "--epochs {bad:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--epochs expects a positive integer"), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
        assert!(!err.contains("building substrate"), "{err}");
    }

    // Epoch sub-flags without the mode itself are silent no-ops — reject.
    for spec in [vec!["--epoch-plan", "light"], vec!["--epoch-verify"]] {
        let out = repro(&spec);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("need --epochs"), "{err}");
    }

    // The loop drives its own builds: experiment selection, query modes,
    // and the bench recorders do not compose with it.
    for spec in [
        vec!["--epochs", "2", "--exp", "map"],
        vec!["--epochs", "2", "--bench-record"],
        vec!["--epochs", "2", "--query", "route", "0"],
    ] {
        let out = repro(&spec);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("does not combine"), "{err}");
        assert!(!err.contains("building substrate"), "{err}");
    }
}

#[test]
fn epoch_plan_errors_exit_2_with_usage() {
    let dir = scratch();

    // Unknown profile name (falls through to the file read).
    let out = repro(&["--epochs", "2", "--epoch-plan", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("neither a profile"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(!err.contains("building substrate"), "{err}");

    // Unparseable plan file.
    let garbled = dir.join("garbled-epoch-plan.json");
    std::fs::write(&garbled, b"{ not json").unwrap();
    let out = repro(&["--epochs", "2", "--epoch-plan", garbled.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse plan file"), "{err}");

    // Parseable but out of range: rates above 1 fail validation.
    let invalid = dir.join("invalid-epoch-plan.json");
    std::fs::write(&invalid, br#"{"resolver_churn": 2.0}"#).unwrap();
    let out = repro(&["--epochs", "2", "--epoch-plan", invalid.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid plan"), "{err}");
}

#[test]
fn epoch_loop_honours_metrics() {
    let dir = scratch().join("epoch-metrics-out");
    let out = repro(&[
        "--epochs",
        "1",
        "--size",
        "small",
        "--seed",
        "29",
        "--metrics",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(dir.join("metrics.json"))
        .expect("--epochs --metrics writes <out>/metrics.json");
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();

    // The span tree covers the epoch-0 full build and the incremental
    // rebuild, each with the resolver deploy under it.
    let spans = match v.get("spans") {
        Some(serde_json::Value::Object(m)) => m,
        other => panic!("metrics.json lacks the span tree: {other:?}"),
    };
    for path in [
        "map.build",
        "map.build/users.activity/resolver.deploy",
        "epoch.apply",
        "map.build_incremental",
        "map.build_incremental/resolver.deploy",
    ] {
        assert!(spans.get(path).is_some(), "no span {path}: {text}");
    }
    assert!(
        v.get("resources").is_some(),
        "metrics.json lacks resources: {text}"
    );
    // The per-epoch rows are still written alongside.
    assert!(dir.join("epoch_metrics.json").exists());
}

#[test]
fn epoch_loop_runs_end_to_end_and_verifies_byte_identity() {
    let dir = scratch().join("epoch-e2e-out");
    let bench = scratch().join("epoch-e2e-bench.json");
    let out = repro(&[
        "--epochs",
        "2",
        "--size",
        "small",
        "--seed",
        "29",
        "--epoch-plan",
        "light",
        "--epoch-verify",
        "--snapshot",
        "--out",
        dir.to_str().unwrap(),
        "--bench-out",
        bench.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("verified byte-identical"), "{err}");

    // Per-epoch metrics rows: epoch 0 is the full build, later epochs
    // carry their dirty campaign lists and changed fingerprints.
    let text = std::fs::read_to_string(dir.join("epoch_metrics.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v.get("schema_version").and_then(|s| s.as_u64()), Some(1));
    assert_eq!(v.get("plan").and_then(|p| p.as_str()), Some("light"));
    let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
    assert_eq!(rows.len(), 3, "{text}");
    assert_eq!(rows[0].get("epoch").and_then(|e| e.as_u64()), Some(0));
    assert_eq!(
        rows[0]
            .get("dirty")
            .and_then(|d| d.as_array())
            .map(Vec::len),
        Some(0)
    );
    for row in &rows[1..] {
        assert!(
            !row.get("dirty")
                .and_then(|d| d.as_array())
                .unwrap()
                .is_empty(),
            "churn epoch with empty dirty set: {row}"
        );
    }
    let fp = |i: usize| rows[i].get("fingerprint").and_then(|f| f.as_str()).unwrap();
    assert_ne!(fp(0), fp(1), "churn did not change the map");

    // The speedup trajectory: one verified row per churn epoch.
    let text = std::fs::read_to_string(&bench).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
    assert_eq!(rows.len(), 2, "{text}");
    for row in rows {
        assert_eq!(
            row.get("byte_identical").and_then(|b| b.as_bool()),
            Some(true)
        );
        assert!(
            row.get("speedup_x1000").and_then(|s| s.as_u64()).unwrap() > 0,
            "{row}"
        );
    }

    // Every epoch's snapshot exists, the final one also at the base path,
    // and the diff between first and last epoch is non-empty while the
    // self-diff is empty (both exit 0).
    let e0 = dir.join("map.snap.epoch0");
    let e2 = dir.join("map.snap.epoch2");
    assert_eq!(
        std::fs::read(&e2).unwrap(),
        std::fs::read(dir.join("map.snap")).unwrap(),
        "base snapshot is not the final epoch"
    );
    let out = repro(&[
        "--diff",
        e0.to_str().unwrap(),
        e0.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snapshots are identical"), "{err}");
    let text = std::fs::read_to_string(dir.join("map_diff.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        v.get("cells").and_then(|c| c.as_array()).map(Vec::len),
        Some(0),
        "{text}"
    );

    let out = repro(&[
        "--diff",
        e0.to_str().unwrap(),
        e2.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(dir.join("map_diff.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let cells = v.get("cells").and_then(|c| c.as_array()).unwrap();
    assert!(!cells.is_empty(), "two churned epochs diff empty: {text}");
    for cell in cells {
        let kind = cell.get("kind").and_then(|k| k.as_str()).unwrap();
        assert!(
            ["added", "removed", "moved", "re-evidenced"].contains(&kind),
            "{cell}"
        );
        // Provenance rides along with every delta.
        assert!(cell
            .get("new_techniques")
            .and_then(|t| t.as_array())
            .is_some());
    }
}

#[test]
fn diff_bad_snapshots_exit_2() {
    let dir = scratch();

    // Missing operands are usage errors.
    let out = repro(&["--diff", "only-one.snap"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--diff expects two snapshot paths"), "{err}");

    // Diff mode never composes with build modes.
    let out = repro(&["--diff", "a.snap", "b.snap", "--exp", "map"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Missing file.
    let missing = dir.join("no-such-a.snap");
    let out = repro(&[
        "--diff",
        missing.to_str().unwrap(),
        missing.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open snapshot"), "{err}");

    // Build one real snapshot to corrupt and to version-bump.
    let snap_dir = dir.join("diff-snap-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "31",
        "--out",
        snap_dir.to_str().unwrap(),
        "--snapshot",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let good_path = snap_dir.join("map.snap");
    let good = std::fs::read(&good_path).unwrap();

    // One flipped payload byte fails the checksum.
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let corrupt_path = dir.join("diff-corrupt.snap");
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    let out = repro(&[
        "--diff",
        good_path.to_str().unwrap(),
        corrupt_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum"), "{err}");

    // A foreign format version is rejected as such (the version field
    // sits at byte 8, checked before the checksum).
    let mut foreign = good.clone();
    foreign[8] = foreign[8].wrapping_add(1);
    let foreign_path = dir.join("diff-foreign.snap");
    std::fs::write(&foreign_path, &foreign).unwrap();
    let out = repro(&[
        "--diff",
        good_path.to_str().unwrap(),
        foreign_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("version"), "{err}");

    // Snapshots of different universes (another seed) are incompatible.
    let other_dir = dir.join("diff-other-out");
    let out = repro(&[
        "--exp",
        "map",
        "--size",
        "small",
        "--seed",
        "32",
        "--out",
        other_dir.to_str().unwrap(),
        "--snapshot",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = repro(&[
        "--diff",
        good_path.to_str().unwrap(),
        other_dir.join("map.snap").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not comparable"), "{err}");
}

#[test]
fn bench_baseline_gates_peak_memory_regressions() {
    let dir = scratch();

    // A baseline with an absurdly small peak: any real build regresses.
    let tight = dir.join("bench-baseline-tight.json");
    std::fs::write(
        &tight,
        br#"{"schema_version": 1, "rows": [{"size": "small", "tracked_peak_bytes": 1}]}"#,
    )
    .unwrap();
    let out_file = dir.join("bench-gated.json");
    let out = repro(&[
        "--bench-record",
        "--size",
        "small",
        "--bench-out",
        out_file.to_str().unwrap(),
        "--bench-baseline",
        tight.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("REGRESSION"), "{err}");

    // Re-run against the trajectory just recorded: same build, same
    // accounting, so the +10% gate passes.
    let out = repro(&[
        "--bench-record",
        "--size",
        "small",
        "--bench-out",
        dir.join("bench-gated2.json").to_str().unwrap(),
        "--bench-baseline",
        out_file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("within 10% of baseline"), "{err}");

    // A size missing from the baseline passes vacuously, with a note.
    let empty = dir.join("bench-baseline-empty.json");
    std::fs::write(&empty, br#"{"schema_version": 1, "rows": []}"#).unwrap();
    let out = repro(&[
        "--bench-record",
        "--size",
        "small",
        "--bench-out",
        dir.join("bench-gated3.json").to_str().unwrap(),
        "--bench-baseline",
        empty.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no baseline row for size=small"), "{err}");
}
