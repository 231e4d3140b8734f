//! Golden-vector pinning of the default pipeline geometry, plus the
//! penalty-schedule invariant at every supported depth.
//!
//! The vectors under `tests/golden/` were generated from the 3-stage
//! engine *before* it was generalized over [`PipelineGeometry`]
//! (the ignored `regenerate_golden_vectors` test rewrites them:
//! `cargo test --release --test golden_geometry -- --ignored
//! regenerate`). Each
//! file holds one run's stats JSON followed by its complete commit
//! event stream — cycle stamps included — so any timing or
//! architectural drift in the D=3 machine fails the replay
//! bit-for-bit.

use crisp::cc::{compile_crisp, CompileOptions, PredictionMode};
use crisp::isa::FoldPolicy;
use crisp::sim::{
    CycleSim, EventRing, HwPredictor, Machine, PipeEvent, PipelineGeometry, SimConfig, MAX_DEPTH,
    MIN_DEPTH,
};
use crisp::workloads::figure3_with_count;

/// Strip one additive post-refactor field (scalar, array, or flat
/// object value followed by a comma) from a stats JSON line.
fn strip_field(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let Some(start) = json.find(&pat) else {
        return json.to_string();
    };
    let rest = &json[start + pat.len()..];
    let vlen = match rest.as_bytes()[0] {
        b'{' => rest.find('}').map_or(rest.len(), |i| i + 1),
        b'[' => rest.find(']').map_or(rest.len(), |i| i + 1),
        _ => rest.find([',', '}']).unwrap_or(rest.len()),
    };
    let mut after = &rest[vlen..];
    if let Some(tail) = after.strip_prefix(',') {
        after = tail;
    }
    format!("{}{}", &json[..start], after)
}

/// Strip the fields added after the vectors were generated —
/// `schema_version` (v2), the `accounts`/`dropped_events` pair (v3),
/// the `predicted_by`/`static_bit_mispredicts` predictor split (v4),
/// the `parity_scrubs` counter (v5) and the
/// `blocks_translated`/`superinstr_dispatches`/`deopt_falls`
/// threaded-tier counters (v6). They deliberately sit outside the
/// frozen surface: additive observability, not architectural behaviour
/// (and the accounting's own invariants are enforced by
/// `tests/prop_accounting.rs`).
fn normalize_stats(json: &str) -> String {
    [
        "schema_version",
        "accounts",
        "dropped_events",
        "predicted_by",
        "static_bit_mispredicts",
        "parity_scrubs",
        "blocks_translated",
        "superinstr_dispatches",
        "deopt_falls",
    ]
    .iter()
    .fold(json.to_string(), |s, key| strip_field(&s, key))
}

fn fold_name(p: FoldPolicy) -> &'static str {
    match p {
        FoldPolicy::None => "none",
        FoldPolicy::Host1 => "host1",
        FoldPolicy::Host13 => "host13",
        FoldPolicy::All => "all",
    }
}

/// Re-run one golden configuration at the default geometry and return
/// the file's expected contents.
fn replay(image: &crisp::asm::Image, cfg: SimConfig) -> String {
    let sim = CycleSim::with_observer(
        Machine::load(image).expect("image loads"),
        cfg,
        EventRing::new(1 << 20),
    );
    let (run, ring) = sim.run_observed().expect("run completes");
    assert!(run.halted, "golden workloads must halt");
    assert_eq!(ring.dropped, 0, "ring must hold the whole run");
    let mut out = String::new();
    out.push_str(&normalize_stats(&run.stats.to_json()));
    out.push('\n');
    for ev in ring.events() {
        if matches!(ev, PipeEvent::Commit { .. }) {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
    }
    out
}

/// The 24 golden configurations — two compiles of figure3 (64
/// iterations) × four fold policies × three predictors — as
/// `(file name, image, config)`, all at the default geometry.
fn golden_cases() -> Vec<(String, crisp::asm::Image, SimConfig)> {
    let source = figure3_with_count(64);
    let compiles = [
        ("figure3x64", CompileOptions::default()),
        (
            "figure3x64-nospread",
            CompileOptions {
                spread: false,
                prediction: PredictionMode::Btfnt,
            },
        ),
    ];
    let mut cases = Vec::new();
    for (wname, copts) in compiles {
        let image = compile_crisp(&source, &copts).expect("workload compiles");
        for fold_policy in [
            FoldPolicy::None,
            FoldPolicy::Host1,
            FoldPolicy::Host13,
            FoldPolicy::All,
        ] {
            for (pname, predictor) in [
                ("static", HwPredictor::StaticBit),
                (
                    "dyn2x64",
                    HwPredictor::Dynamic {
                        bits: 2,
                        entries: 64,
                    },
                ),
                (
                    "btb128x4",
                    HwPredictor::Btb {
                        entries: 128,
                        ways: 4,
                    },
                ),
            ] {
                let cfg = SimConfig {
                    fold_policy,
                    predictor,
                    ..SimConfig::default()
                };
                assert_eq!(cfg.geometry, PipelineGeometry::crisp());
                let name = format!("{wname}_{}_{pname}.txt", fold_name(fold_policy));
                cases.push((name, image.clone(), cfg));
            }
        }
    }
    cases
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Every fold-policy × predictor sweep at D=3 must reproduce its
/// pre-generalization golden vector bit-for-bit: stats line, commit
/// stream, and the cycle stamp of every commit.
#[test]
fn default_geometry_matches_pre_refactor_golden_vectors() {
    let cases = golden_cases();
    assert_eq!(cases.len(), 24, "all golden vectors must be replayed");
    for (name, image, cfg) in cases {
        let path = golden_path(&name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let got = replay(&image, cfg);
        assert_eq!(got, want, "golden vector {name} drifted");
    }
}

/// Rewrite every golden vector through the same [`replay`] the check
/// above uses. Run only by a change meant to move the vectors:
/// `cargo test --release --test golden_geometry -- --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/golden; run on purpose"]
fn regenerate_golden_vectors() {
    for (name, image, cfg) in golden_cases() {
        let path = golden_path(&name);
        std::fs::write(&path, replay(&image, cfg))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

/// The stats JSON at a non-default depth emits the histogram at live
/// length and carries the schema version; stripping the post-v1
/// fields reproduces the v1 shape exactly (what `normalize_stats`
/// relies on).
#[test]
fn deep_geometry_stats_json_has_live_depth_histogram() {
    let source = figure3_with_count(16);
    let image = compile_crisp(&source, &CompileOptions::default()).expect("compiles");
    let cfg = SimConfig {
        geometry: PipelineGeometry::new(5),
        ..SimConfig::default()
    };
    let run = CycleSim::new(Machine::load(&image).expect("loads"), cfg)
        .run()
        .expect("halts");
    let json = run.stats.to_json();
    assert!(json.starts_with("{\"schema_version\":"), "{json}");
    let start = json
        .find("\"mispredicts_by_stage\":[")
        .expect("field present");
    let arr = &json[start + "\"mispredicts_by_stage\":[".len()..];
    let arr = &arr[..arr.find(']').expect("closed array")];
    assert_eq!(
        arr.split(',').count(),
        6,
        "depth-5 geometry has 6 resolve points: {json}"
    );
    assert!(!normalize_stats(&json).contains("schema_version"));
}

/// At every depth, the mispredict penalty of a branch equals the index
/// of the stage that resolved it, for every fold policy: the paper's
/// "stage index is the penalty" schedule is structural, not a D=3
/// accident.
#[test]
fn penalty_equals_resolve_stage_at_every_depth_and_policy() {
    use crisp::asm::assemble_text;

    // Steady-state penalty: 24-iteration loop, statically predicted
    // wrong (23 mispredicts) vs right (1); the delta rounds to 22
    // penalties (see `measured_penalty` in the bench crate).
    let penalty_of = |cfg: SimConfig| {
        let src_with = |bit: &str| {
            format!(
                "
                mov Accum,$0
            top:
                add Accum,$1
                cmp.s< Accum,$24
                ifjmpy.{bit} top
                halt
            "
            )
        };
        let run = |bit: &str| {
            let image = assemble_text(&src_with(bit)).expect("assembles");
            CycleSim::new(Machine::load(&image).expect("loads"), cfg)
                .run()
                .expect("halts")
        };
        let wrong = run("nt");
        let right = run("t");
        assert!(wrong.stats.mispredicts() >= 23);
        let resolved = wrong
            .stats
            .mispredicts_by_stage
            .as_slice()
            .iter()
            .rposition(|&c| c > 0)
            .expect("some stage resolved the mispredicts");
        let delta = wrong.stats.cycles as i64 - right.stats.cycles as i64;
        let penalty = usize::try_from(((delta + 11).div_euclid(22)).max(0)).unwrap();
        (resolved, penalty)
    };

    for depth in MIN_DEPTH..=MAX_DEPTH {
        for fold_policy in [
            FoldPolicy::None,
            FoldPolicy::Host1,
            FoldPolicy::Host13,
            FoldPolicy::All,
        ] {
            let cfg = SimConfig {
                geometry: PipelineGeometry::new(depth),
                fold_policy,
                ..SimConfig::default()
            };
            let (resolved, penalty) = penalty_of(cfg);
            assert_eq!(
                penalty, resolved,
                "D={depth} {fold_policy:?}: penalty {penalty} != resolve stage {resolved}"
            );
            // Folding pulls the compare into the branch's slot, moving
            // resolution one stage later (retire itself).
            let expect = if fold_policy == FoldPolicy::None {
                depth - 1
            } else {
                depth
            };
            assert_eq!(resolved, expect, "D={depth} {fold_policy:?}");
        }
    }
}
