//! Integration tests that drive the built binaries end to end.

use std::io::{ErrorKind, Write as _};
use std::process::{Command, Stdio};

const PROGRAM: &str = "int r; void main() { int i; for (i = 0; i < 9; i++) r += i; }";

fn run_tool(exe: &str, args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tool spawns");
    // A tool that rejects its flags exits before reading stdin; the
    // resulting EPIPE is part of the scenario, not a harness failure.
    match child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => panic!("stdin writes: {e}"),
    }
    let out = child.wait_with_output().expect("tool runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn crispc_lists_code_from_stdin() {
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crispc"), &[], PROGRAM);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("enter"), "{stdout}");
    assert!(stdout.contains("ifjmpy"), "{stdout}");
    assert!(stdout.contains("folds with next"), "{stdout}");
}

#[test]
fn crispc_emits_vax() {
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crispc"), &["--emit", "vax"], PROGRAM);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("addl2"), "{stdout}");
    assert!(
        stdout.contains("jbr") || stdout.contains("jgeq"),
        "{stdout}"
    );
}

#[test]
fn crispc_summary_lists_symbols() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crispc"),
        &["--emit", "summary"],
        PROGRAM,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("main"), "{stdout}");
    assert!(stdout.contains("parcels"), "{stdout}");
}

#[test]
fn crispc_reports_compile_errors() {
    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crispc"), &[], "void main() { x = 1; }");
    assert!(!ok);
    assert!(stderr.contains("undefined"), "{stderr}");
}

#[test]
fn crisp_run_functional() {
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &[], PROGRAM);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("program instructions"), "{stdout}");
    assert!(stdout.contains("folded branches"), "{stdout}");
}

#[test]
fn crisp_run_cycles_with_machine_flags() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--cycles", "--fold", "none", "--icache", "64"],
        PROGRAM,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cycles"), "{stdout}");
    assert!(stdout.contains("mispredicts"), "{stdout}");
}

#[test]
fn crisp_run_assembly_input() {
    let asm = "
        mov 0(sp),$0
    top:
        add 0(sp),$1
        cmp.s< 0(sp),$5
        ifjmpy.t top
        halt
    ";
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &["--asm"], asm);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("conditional branches : 5"), "{stdout}");
}

#[test]
fn crisp_run_branch_trace_output() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--branch-trace"],
        PROGRAM,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("branch trace"), "{stdout}");
    assert!(stdout.contains("taken"), "{stdout}");
}

#[test]
fn crisp_run_trace_profile_and_stats_export() {
    let trace = std::env::temp_dir().join(format!("crisp_run_trace_{}.jsonl", std::process::id()));
    let trace_path = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &[
            "--cycles",
            "--trace",
            trace_path,
            "--profile",
            "--stats-json",
            "-",
        ],
        PROGRAM,
    );
    let jsonl = std::fs::read_to_string(&trace);
    std::fs::remove_file(&trace).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("branch-site profile"), "{stdout}");
    assert!(stdout.contains(r#""cycles":"#), "{stdout}");
    let jsonl = jsonl.expect("trace file written");
    assert!(jsonl.lines().count() > 10, "{jsonl}");
    assert!(jsonl.contains(r#""ev":"issue""#), "{jsonl}");
    assert!(jsonl.contains(r#""ev":"branch_retire""#), "{jsonl}");
}

#[test]
fn crisp_run_chrome_trace_and_timeline() {
    let out = std::env::temp_dir().join(format!("crisp_run_chrome_{}.json", std::process::id()));
    let out_path = out.to_str().unwrap();
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--cycles", "--chrome-trace", out_path, "--timeline"],
        PROGRAM,
    );
    let chrome = std::fs::read_to_string(&out);
    std::fs::remove_file(&out).ok();
    assert!(ok, "{stderr}");
    // The loop exit mispredicts, so a timeline window is printed.
    assert!(stdout.contains("I=IR O=OR R=RR"), "{stdout}");
    let chrome = chrome.expect("chrome trace written");
    assert!(chrome.contains(r#""traceEvents":["#), "{chrome}");

    // Chrome trace and timeline are cycle-engine features.
    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &["--timeline"], PROGRAM);
    assert!(!ok);
    assert!(stderr.contains("--timeline needs --cycles"), "{stderr}");
}

#[test]
fn crisp_run_rejects_fault_flags_without_cycles() {
    // The functional engine has no front end: a requested strike,
    // parity mode or degrade policy used to be dropped with exit 0.
    let cases: [(&[&str], &str); 3] = [
        (&["--inject", "cache:10:0:5"], "--inject needs --cycles"),
        (&["--parity", "detect"], "--parity needs --cycles"),
        (&["--degrade", "1"], "--degrade needs --cycles"),
    ];
    for (args, message) in cases {
        let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), args, PROGRAM);
        assert!(!ok, "{args:?}: {stdout}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let mut args = vec!["--cycles", "--stats-json", "-"];
    for (flags, _) in cases {
        args.extend(flags);
    }
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &args, PROGRAM);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""faults_injected":1"#), "{stdout}");
}

#[test]
fn crisp_run_threaded_engine_rejects_observation() {
    // The threaded tier runs unobserved only, so observing a run never
    // moves it onto another code path: each observation needs the
    // interpreter.
    let cases: [(&[&str], &str); 3] = [
        (&["--trace", "-"], "--trace needs --engine interp"),
        (&["--profile"], "--profile needs --engine interp"),
        (&["--branch-trace"], "--branch-trace needs --engine interp"),
    ];
    for (flags, message) in cases {
        let mut args = vec!["--engine", "threaded"];
        args.extend(flags);
        let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &args, PROGRAM);
        assert!(!ok, "{args:?}: {stdout}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--engine", "threaded"],
        PROGRAM,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("translated blocks"), "{stdout}");
}

#[test]
fn crisp_fault_rejudges_a_predictor_hang_on_a_larger_budget() {
    // At this budget a parity-off btb-tag strike on program seed 65
    // costs enough cycles to hang. A strike that only costs cycles is
    // re-judged on twice --max-cycles, where it is masked, so the
    // campaign passes.
    let args = "--target all --predictor btb --seed 5 --programs 64 --faults 64 \
                --max-cycles 1500 --jobs 2";
    let args: Vec<&str> = args.split_whitespace().collect();
    let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-fault"), &args, "");
    assert!(ok, "{stdout}{stderr}");
    assert!(!stdout.contains("FAILURE"), "{stdout}");
}

#[test]
fn crisp_run_cpi_breakdown_conserves_cycles() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--cycles", "--cpi-breakdown"],
        PROGRAM,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cycle accounting ("), "{stdout}");
    assert!(stdout.contains("useful issue"), "{stdout}");
    assert!(stdout.contains("pipeline startup"), "{stdout}");
    // The total row carries the full cycle count and a 100% share:
    // the buckets partition the run.
    let cycles: u64 = stdout
        .lines()
        .find(|l| l.starts_with("cycles"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("cycles line");
    let total = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("total"))
        .expect("total row");
    assert!(total.contains(&cycles.to_string()), "{total}");
    assert!(total.contains("100.00%"), "{total}");

    // Accounting is a cycle-engine feature.
    let (_, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--cpi-breakdown"],
        PROGRAM,
    );
    assert!(!ok);
    assert!(
        stderr.contains("--cpi-breakdown needs --cycles"),
        "{stderr}"
    );
}

#[test]
fn crisp_run_stats_json_carries_accounts_and_trace_footer() {
    let trace = std::env::temp_dir().join(format!("crisp_run_footer_{}.jsonl", std::process::id()));
    let trace_path = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--cycles", "--trace", trace_path, "--stats-json", "-"],
        PROGRAM,
    );
    let jsonl = std::fs::read_to_string(&trace);
    std::fs::remove_file(&trace).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""schema_version":6"#), "{stdout}");
    assert!(stdout.contains(r#""accounts":{"useful":"#), "{stdout}");
    assert!(stdout.contains(r#""dropped_events":0"#), "{stdout}");
    assert!(stdout.contains(r#""predicted_by":"static""#), "{stdout}");
    // The trace ends with the completeness footer, and its event count
    // matches the body.
    let jsonl = jsonl.expect("trace file written");
    let last = jsonl.lines().last().expect("trace non-empty");
    assert!(last.contains(r#""ev":"trace_footer""#), "{last}");
    assert!(last.contains(r#""dropped":0"#), "{last}");
    let body_lines = jsonl.lines().count() as u64 - 1;
    assert!(
        last.contains(&format!(r#""events":{body_lines}"#)),
        "{last}"
    );
}

#[test]
fn campaign_drivers_emit_heartbeat_telemetry() {
    for (exe, extra) in [
        (env!("CARGO_BIN_EXE_crisp-diff"), ["--programs", "3"]),
        (env!("CARGO_BIN_EXE_crisp-fault"), ["--faults", "8"]),
    ] {
        let mut args = vec!["--smoke", "--jobs", "2", "--heartbeat", "1"];
        args.extend(extra);
        let (_, stderr, ok) = run_tool(exe, &args, "");
        assert!(ok, "{stderr}");
        // The heartbeat emits one snapshot immediately, so even a
        // sub-second campaign produces at least one line plus the
        // final report.
        assert!(stderr.contains(r#""type":"heartbeat""#), "{stderr}");
        let last = stderr
            .lines()
            .rev()
            .find(|l| l.contains(r#""type":"final""#))
            .expect("final report line");
        assert!(last.contains(r#""findings":0"#), "{last}");
        assert!(last.contains(r#""eta_s":null"#), "{last}");

        let (_, stderr, ok) = run_tool(exe, &["--smoke", "--heartbeat", "0"], "");
        assert!(!ok);
        assert!(stderr.contains("--heartbeat: bad value"), "{stderr}");
    }
}

#[test]
fn crisp_run_predictor_flag_drives_live_prediction() {
    // A loop whose static bit is wrong on every iteration: the BTB
    // learns it after the first taken retirement, so the dynamic run
    // must be faster and report its predictor in the stats.
    let asm = "
        mov 0(sp),$0
    top:
        add 0(sp),$1
        cmp.s< 0(sp),$50
        ifjmpy.nt top
        halt
    ";
    let cycles_of = |stdout: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.starts_with("cycles"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("cycles line")
    };
    let (static_out, stderr, ok) =
        run_tool(env!("CARGO_BIN_EXE_crisp-run"), &["--asm", "--cycles"], asm);
    assert!(ok, "{stderr}");
    let (btb_out, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &[
            "--asm",
            "--cycles",
            "--predictor",
            "btb",
            "--stats-json",
            "-",
        ],
        asm,
    );
    assert!(ok, "{stderr}");
    assert!(cycles_of(&btb_out) < cycles_of(&static_out));
    assert!(
        btb_out.contains("predictor            : btb128x4"),
        "{btb_out}"
    );
    assert!(
        btb_out.contains(r#""predicted_by":"btb128x4""#),
        "{btb_out}"
    );

    // Unknown schemes and geometries too large to allocate are usage
    // errors, not crashes.
    for bad in [
        "oracle",
        "counter2x4611686018427387904",
        "btb1152921504606846976x1",
        "jumptrace4611686018427387904",
    ] {
        let (_, stderr, ok) = run_tool(
            env!("CARGO_BIN_EXE_crisp-run"),
            &["--cycles", "--predictor", bad],
            asm,
        );
        assert!(!ok);
        assert!(stderr.contains("--predictor: bad value"), "{bad}: {stderr}");
    }
}

#[test]
fn crisp_diff_smoke_with_pinned_predictor() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-diff"),
        &[
            "--smoke",
            "--programs",
            "3",
            "--c-programs",
            "1",
            "--predictor",
            "counter2",
        ],
        "",
    );
    assert!(ok, "{stderr}");
    // Pinning collapses the 4-way predictor dimension of the 32-config
    // sweep to 8 deduplicated configurations.
    assert!(stdout.contains("x 8 configurations"), "{stdout}");
    assert!(stdout.contains("all agree"), "{stdout}");
}

#[test]
fn campaign_checkpoint_from_larger_campaign_is_rejected() {
    let cp = std::env::temp_dir().join(format!("crisp_diff_cp_{}.json", std::process::id()));
    let cp_path = cp.to_str().unwrap();
    std::fs::write(&cp, r#"{"completed":500}"#).unwrap();
    let (_, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-diff"),
        &[
            "--smoke",
            "--programs",
            "2",
            "--c-programs",
            "0",
            "--resume",
            cp_path,
        ],
        "",
    );
    std::fs::remove_file(&cp).ok();
    assert!(!ok);
    assert!(
        stderr.contains("500 completed cases") && stderr.contains("different campaign"),
        "{stderr}"
    );
}

#[test]
fn unknown_flags_fail_cleanly() {
    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &["--bogus"], PROGRAM);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    // A value-taking unknown flag is blamed, not the file after it.
    let (_, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-run"),
        &["--max-steps", "5", "prog.c"],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--max-steps`"), "{stderr}");
    let (_, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crispc"), &["--emit", "pdf"], PROGRAM);
    assert!(!ok);
    assert!(stderr.contains("unknown --emit"), "{stderr}");
}

#[test]
fn campaign_drivers_have_no_engine_flag() {
    // Both campaign drivers run the interpreter; the threaded tier's
    // cross-check lives in the test suite.
    for exe in [
        env!("CARGO_BIN_EXE_crisp-diff"),
        env!("CARGO_BIN_EXE_crisp-fault"),
    ] {
        let (stdout, stderr, ok) = run_tool(exe, &["--smoke", "--engine", "interp"], "");
        assert!(!ok, "{exe}: {stdout}");
        assert!(
            stderr.contains("unknown flag `--engine`"),
            "{exe}: {stderr}"
        );
    }
}

#[test]
fn crisp_run_rejects_bad_machine_geometry() {
    // These used to trip `SimConfig::validate` asserts, or try to
    // allocate a 2^30-entry decoded cache.
    let cases: [(&[&str], &str); 4] = [
        (&["--icache", "0"], "--icache: bad value `0`"),
        (&["--icache", "3"], "--icache: bad value `3`"),
        (
            &["--icache", "1073741824"],
            "--icache: bad value `1073741824`",
        ),
        (&["--mem-latency", "0"], "--mem-latency: bad value `0`"),
    ];
    for (args, message) in cases {
        for cycles in [false, true] {
            let mut argv = args.to_vec();
            if cycles {
                argv.push("--cycles");
            }
            let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-run"), &argv, PROGRAM);
            assert!(!ok, "{argv:?}: {stdout}");
            assert!(stderr.contains(message), "{argv:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        }
    }
}

#[test]
fn crisp_diff_rejects_an_empty_campaign() {
    let (stdout, stderr, ok) = run_tool(
        env!("CARGO_BIN_EXE_crisp-diff"),
        &["--programs", "0", "--c-programs", "0"],
        "",
    );
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("the campaign has no programs"), "{stderr}");
    assert!(!stdout.contains("all agree"), "{stdout}");
}

#[test]
fn repeated_flags_fail_with_a_clear_error() {
    // A repeated value flag or switch used to fall through to the
    // leftover check and read as an unknown flag.
    let cases: [(&str, &[&str], &str); 7] = [
        (
            env!("CARGO_BIN_EXE_crisp-diff"),
            &["--jobs", "2", "--jobs", "1"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-diff"),
            &["--smoke", "--smoke"],
            "--smoke",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-fault"),
            &["--smoke", "--smoke"],
            "--smoke",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-fault"),
            &["--smoke", "--report", "a.json", "--report", "b.json"],
            "--report",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-run"),
            &["--cycles", "--cycles"],
            "--cycles",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-run"),
            &["--cycles", "--fold", "none", "--fold", "all"],
            "--fold",
        ),
        (
            env!("CARGO_BIN_EXE_crispc"),
            &["--fold", "none", "--fold", "all"],
            "--fold",
        ),
    ];
    for (exe, args, flag) in cases {
        let (stdout, stderr, ok) = run_tool(exe, args, PROGRAM);
        assert!(!ok, "{args:?}: {stdout}");
        assert!(
            stderr.contains(&format!("`{flag}` given more than once")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
    // One parser per shared flag: every tool rejects a bad value with
    // the same text.
    let bad_values: [(&[&str], &str); 3] = [
        (
            &["--eu-depth", "9"],
            "--eu-depth: bad value `9` (want 2..=8)",
        ),
        (
            &["--max-cycles", "0"],
            "--max-cycles: bad value `0` (want a count >= 1)",
        ),
        (&["--predictor", "zzz"], "--predictor: bad value `zzz`"),
    ];
    for exe in [
        env!("CARGO_BIN_EXE_crisp-run"),
        env!("CARGO_BIN_EXE_crisp-diff"),
        env!("CARGO_BIN_EXE_crisp-fault"),
    ] {
        for (args, message) in bad_values {
            let (stdout, stderr, ok) = run_tool(exe, args, PROGRAM);
            assert!(!ok, "{exe} {args:?}: {stdout}");
            assert!(stderr.contains(message), "{exe} {args:?}: {stderr}");
        }
    }
}

#[test]
fn crisp_fault_rejects_a_case_count_that_overflows() {
    // 2 x 2^63 wraps to 0 cases and 3 x 6148914691236517206 to 2: both
    // must fail as usage errors instead of running a wrapped campaign.
    // The --faults bound rejects them before any product is formed.
    for (programs, faults) in [("2", "9223372036854775808"), ("3", "6148914691236517206")] {
        let (stdout, stderr, ok) = run_tool(
            env!("CARGO_BIN_EXE_crisp-fault"),
            &["--jobs", "1", "--programs", programs, "--faults", faults],
            "",
        );
        assert!(!ok, "{stdout}");
        assert!(
            stderr.contains("--faults") && stderr.contains("bound of 65536"),
            "{stderr}"
        );
        assert!(!stdout.contains(r#""cases""#), "{stdout}");
    }
}

#[test]
fn campaign_counts_past_their_bounds_are_usage_errors() {
    // Each count sizes an up-front allocation, so 2^60 must fail as a
    // usage error (exit 1), not panic with "capacity overflow" (101).
    const HUGE: &str = "1152921504606846976";
    let cases: [(&str, &[&str], &str); 4] = [
        (
            env!("CARGO_BIN_EXE_crisp-fault"),
            &["--programs", HUGE, "--faults", "1"],
            "--programs: 1152921504606846976 is more than the bound of 1048576",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-fault"),
            &["--programs", "1", "--faults", HUGE],
            "--faults: 1152921504606846976 is more than the bound of 65536",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-diff"),
            &["--programs", HUGE, "--c-programs", "0"],
            "--programs: 1152921504606846976 is more than the bound of 1048576",
        ),
        (
            env!("CARGO_BIN_EXE_crisp-diff"),
            &["--programs", "0", "--c-programs", HUGE],
            "--c-programs: 1152921504606846976 is more than the bound of 1048576",
        ),
    ];
    for (exe, args, message) in cases {
        let out = Command::new(exe)
            .args(args)
            .args(["--jobs", "1"])
            .output()
            .expect("tool runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn crisp_diff_inject_rejects_campaign_flags() {
    // `--inject` runs one fixed demonstration; these flags used to be
    // accepted and silently ignored.
    for args in [
        &["--inject", "--predictor", "btb"][..],
        &["--inject", "--max-cycles", "5"],
        &["--inject", "--programs", "3"],
        &["--inject", "--c-programs", "3"],
        &["--inject", "--resume", "/nonexistent/x.json"],
        &["--inject", "--heartbeat", "1"],
        &["--inject", "--jobs", "2"],
        &["--inject", "--smoke"],
    ] {
        let (stdout, stderr, ok) = run_tool(env!("CARGO_BIN_EXE_crisp-diff"), args, "");
        assert!(!ok, "{args:?}: {stdout}");
        assert!(
            stderr.contains(&format!("{} does not apply to --inject", args[1])),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}
