//! Front-end profile: what one antenna window's DSP front end costs,
//! stage by stage — pre-processing (group, circular-average, π-fold,
//! unwrap), the fused unwrap+OLS raw fit, and the robust
//! multipath-rejecting fit, split into its Theil–Sen seed and its
//! reject-refit loop — comparing the workspace kernels against the
//! frozen pre-rework allocating implementations in [`rfp_dsp::reference`]
//! (DESIGN.md §6).
//!
//! The two paths compute the same observation (the property suite
//! `frontend_workspace` pins them together); the difference is purely
//! data layout and algorithmic discipline: flat SoA per-channel columns
//! reused across windows, raw-fit sums accumulated during the unwrap,
//! `select_nth_unstable` medians and an incrementally-downdated refit —
//! versus `BTreeMap` grouping, per-channel `Vec`s, sorting medians and a
//! full refit per rejection round.
//!
//! The `preprocess` stage used to be trig-floor-bound on both paths (four
//! libm calls per read, bit-identity pinning the exact same evaluations).
//! The [`rfp_dsp::TrigProvider`] rework breaks that bound: the default
//! `Table` backend replaces the per-read libm calls with quantized
//! phase-code lookups (still bit-identical on code-carrying reads —
//! exactly what the R420 windows here produce), and the `Polynomial`
//! backend evaluates a bounded-error kernel in 4-wide lanes. Each window
//! therefore also reports per-backend `preprocess` rows (Table /
//! Polynomial / Libm vs the frozen reference), and the standard window's
//! table-backend ratio is exported as `standard_preprocess_speedup_p50`
//! for the perf gate's ≥2× floor. The fit chain — the fused unwrap+OLS
//! fit plus the robust multipath rejection (Theil–Sen seed + reject
//! loop), the "front end" of Eq. 5 — carries the earlier rework's
//! algorithmic wins and keeps its own floor.
//!
//! Writes a `BENCH_frontend.json` snapshot at the repo root (override the
//! path with `FRONTEND_PROFILE_OUT`); `scripts/bench_gate` regenerates it
//! with `FRONTEND_PROFILE_QUICK=1` and enforces the fused fit chain's ≥2×
//! p50 speedup on the paper's standard window plus a no-regression check
//! on the end-to-end window latency.

use rfp_bench::report;
use rfp_dsp::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
use rfp_dsp::robust::{robust_line_fit_seeded, robust_line_fit_with, RobustFitConfig};
use rfp_dsp::{reference, theil_sen_with, FrontEndWorkspace};
use rfp_geom::Vec2;
use rfp_obs::JsonValue;
use rfp_sim::{Motion, Scene, SimTag};
use std::hint::black_box;
use std::time::Instant;

/// `FRONTEND_PROFILE_QUICK=1` trims the repeats for the CI perf gate.
fn quick_mode() -> bool {
    std::env::var("FRONTEND_PROFILE_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// (p50, p90) microseconds over `repeats` timed runs of `f`.
fn time_us<F: FnMut()>(mut f: F, warmup: usize, repeats: usize) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    (samples[samples.len() / 2], samples[samples.len() * 9 / 10])
}

/// One antenna's raw reads from the paper-like simulated survey, with the
/// window density controlled by the reader's reads-per-channel dwell.
fn window_reads(reads_per_channel: usize) -> Vec<RawRead> {
    let scene = Scene::standard_2d();
    let reader = scene.reader().with_reads_per_channel(reads_per_channel);
    let scene = scene.with_reader(reader);
    let tag = SimTag::with_seeded_diversity(3)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.5), 0.9));
    let survey = scene.survey(&tag, 31);
    survey.per_antenna.into_iter().next().expect("antenna 0")
}

/// One measured stage: reference vs fused p50/p90 and the p50 ratio.
struct Stage {
    name: &'static str,
    ref_p50: f64,
    ref_p90: f64,
    fused_p50: f64,
    fused_p90: f64,
}

impl Stage {
    fn speedup(&self) -> f64 {
        self.ref_p50 / self.fused_p50
    }

    fn json(&self) -> JsonValue {
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        JsonValue::obj(vec![
            ("stage", JsonValue::Str(self.name.into())),
            ("reference_p50_us", JsonValue::Num(round2(self.ref_p50))),
            ("reference_p90_us", JsonValue::Num(round2(self.ref_p90))),
            ("fused_p50_us", JsonValue::Num(round2(self.fused_p50))),
            ("fused_p90_us", JsonValue::Num(round2(self.fused_p90))),
            ("speedup_p50", JsonValue::Num(round2(self.speedup()))),
        ])
    }
}

/// Times `preprocess_reads_with` under one trig backend.
fn time_preprocess_backend(
    trig: rfp_dsp::TrigProvider,
    reads: &[RawRead],
    ws: &mut FrontEndWorkspace,
    out: &mut Vec<rfp_dsp::preprocess::ChannelObservation>,
    warmup: usize,
    repeats: usize,
) -> (f64, f64) {
    let config = PreprocessConfig { trig, ..PreprocessConfig::default() };
    time_us(
        || {
            preprocess_reads_with(ws, black_box(reads), &config, out).expect("usable");
            black_box(&out);
        },
        warmup,
        repeats,
    )
}

/// Measures the three front-end stages plus the end-to-end window for one
/// read density. The second return value holds one `preprocess` row per
/// trig backend (p50/p90 and the p50 ratio against the frozen reference);
/// the `Table` row's ratio is also returned for the gate metric.
fn profile_window(
    reads: &[RawRead],
    warmup: usize,
    repeats: usize,
) -> (Vec<Stage>, Vec<JsonValue>, f64) {
    let pre = PreprocessConfig::default();
    let robust = RobustFitConfig::default();

    // Stage inputs shared by both paths.
    let channels = reference::preprocess_reads(reads, &pre).expect("usable window");
    let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
    let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    preprocess_reads_with(&mut ws, reads, &pre, &mut out).expect("usable window");

    let mut stages = Vec::new();

    // Pre-processing: group + circular-average + π-fold + unwrap, once
    // per trig backend against the (libm-only) frozen reference. The
    // canonical "preprocess" stage row carries the default backend
    // (`Table`); the per-backend rows land next to it in the snapshot.
    rfp_dsp::trig::warm_tables();
    let (rp50, rp90) = time_us(
        || {
            black_box(reference::preprocess_reads(black_box(reads), &pre).expect("usable"));
        },
        warmup,
        repeats,
    );
    let mut backend_rows = Vec::new();
    let mut table_speedup = 0.0f64;
    for trig in
        [rfp_dsp::TrigProvider::Table, rfp_dsp::TrigProvider::Polynomial, rfp_dsp::TrigProvider::Libm]
    {
        let (fp50, fp90) =
            time_preprocess_backend(trig, reads, &mut ws, &mut out, warmup, repeats);
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        backend_rows.push(JsonValue::obj(vec![
            ("backend", JsonValue::Str(format!("{trig:?}").to_lowercase())),
            ("fused_p50_us", JsonValue::Num(round2(fp50))),
            ("fused_p90_us", JsonValue::Num(round2(fp90))),
            ("speedup_p50", JsonValue::Num(round2(rp50 / fp50))),
        ]));
        if trig == rfp_dsp::TrigProvider::Table {
            table_speedup = rp50 / fp50;
            stages.push(Stage {
                name: "preprocess",
                ref_p50: rp50,
                ref_p90: rp90,
                fused_p50: fp50,
                fused_p90: fp90,
            });
        }
    }

    // Raw fit: column materialization + OLS versus the sums already
    // accumulated during the unwrap.
    let (rp50, rp90) = time_us(
        || {
            let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
            let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
            black_box(reference::ols(&xs, &ys).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = time_us(
        || {
            black_box(ws.raw_fit().expect("fittable"));
        },
        warmup,
        repeats,
    );
    stages.push(Stage {
        name: "unwrap_fit",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });

    // Robust rejection, split in its two kernels. Theil–Sen seed: sorted
    // slope and offset medians versus the index-filled slope rows and the
    // integer-key selection.
    let (ts_rp50, ts_rp90) = time_us(
        || {
            black_box(reference::theil_sen(&xs, &ys).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (ts_fp50, ts_fp90) = {
        let (wxs, wys, fit_ws) = ws.fit_columns();
        time_us(
            || {
                black_box(theil_sen_with(fit_ws, wxs, wys).expect("fittable"));
            },
            warmup,
            repeats,
        )
    };
    stages.push(Stage {
        name: "theil_sen",
        ref_p50: ts_rp50,
        ref_p90: ts_rp90,
        fused_p50: ts_fp50,
        fused_p90: ts_fp90,
    });

    // Reject-refit loop: the reference has no entry point without its
    // Theil–Sen seed, so its row is the whole robust fit minus the seed
    // row (p50 from p50s, p90 from p90s). The fused row is timed
    // directly, seeded with the Theil–Sen slope (the seed's intercept
    // median and diagnostics, then the rejection rounds).
    let (rp50, rp90) = time_us(
        || {
            black_box(reference::robust_line_fit(&xs, &ys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = {
        let (wxs, wys, fit_ws) = ws.fit_columns();
        let slope = theil_sen_with(fit_ws, wxs, wys).expect("fittable").slope;
        time_us(
            || {
                black_box(
                    robust_line_fit_seeded(fit_ws, wxs, wys, &robust, 0.0, slope)
                        .expect("fittable"),
                );
            },
            warmup,
            repeats,
        )
    };
    stages.push(Stage {
        name: "reject_loop",
        ref_p50: rp50 - ts_rp50,
        ref_p90: rp90 - ts_rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });

    // End-to-end window: everything an extraction's front end runs.
    let (rp50, rp90) = time_us(
        || {
            let channels =
                reference::preprocess_reads(black_box(reads), &pre).expect("usable");
            let xs: Vec<f64> = channels.iter().map(|c| c.frequency_hz).collect();
            let ys: Vec<f64> = channels.iter().map(|c| c.phase).collect();
            black_box(reference::ols(&xs, &ys).expect("fittable"));
            black_box(reference::robust_line_fit(&xs, &ys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    let (fp50, fp90) = time_us(
        || {
            preprocess_reads_with(&mut ws, black_box(reads), &pre, &mut out).expect("usable");
            black_box(ws.raw_fit().expect("fittable"));
            let (wxs, wys, fit_ws) = ws.fit_columns();
            black_box(robust_line_fit_with(fit_ws, wxs, wys, &robust).expect("fittable"));
        },
        warmup,
        repeats,
    );
    stages.push(Stage {
        name: "window",
        ref_p50: rp50,
        ref_p90: rp90,
        fused_p50: fp50,
        fused_p90: fp90,
    });
    (stages, backend_rows, table_speedup)
}

fn main() {
    report::header(
        "frontend_profile",
        "per-window DSP front end: fused SoA workspace vs pre-rework allocating path",
    );
    if quick_mode() {
        println!("(quick mode: reduced repeats)");
    }
    let (warmup, repeats) = if quick_mode() { (30, 300) } else { (100, 2000) };

    // Three window densities: a sparse inventory pass, the paper's
    // standard survey and a dense tracking window.
    let mut windows: Vec<JsonValue> = Vec::new();
    let mut standard_window_speedup = 0.0f64;
    let mut standard_fit_speedup = 0.0f64;
    let mut standard_preprocess_speedup = 0.0f64;
    for (label, reads_per_channel) in [("sparse", 2usize), ("standard", 8), ("dense", 24)] {
        let reads = window_reads(reads_per_channel);
        report::section(&format!("{label} window ({} reads)", reads.len()));
        let (stages, backend_rows, table_speedup) = profile_window(&reads, warmup, repeats);
        for row in &backend_rows {
            println!(
                "  preprocess[{}] fused p50 {:>7.2} p90 {:>7.2}   speedup ×{:.2}",
                row.get("backend").and_then(JsonValue::as_str).unwrap_or("?"),
                row.get("fused_p50_us").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                row.get("fused_p90_us").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                row.get("speedup_p50").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
            );
        }
        for s in &stages {
            println!(
                "  {:<13} reference p50 {:>7.2} p90 {:>7.2}   fused p50 {:>7.2} p90 {:>7.2}   speedup ×{:.2}",
                s.name,
                s.ref_p50,
                s.ref_p90,
                s.fused_p50,
                s.fused_p90,
                s.speedup()
            );
        }
        // The fit chain (unwrap+OLS fit → Theil–Sen seed → reject loop)
        // is the SoA rework's algorithmic target.
        let chain: Vec<&Stage> = stages
            .iter()
            .filter(|s| matches!(s.name, "unwrap_fit" | "theil_sen" | "reject_loop"))
            .collect();
        let fit_speedup = chain.iter().map(|s| s.ref_p50).sum::<f64>()
            / chain.iter().map(|s| s.fused_p50).sum::<f64>();
        println!("  fit chain (unwrap_fit + theil_sen + reject_loop) speedup ×{fit_speedup:.2}");
        let window_stage = stages.last().expect("window stage");
        if label == "standard" {
            standard_window_speedup = window_stage.speedup();
            standard_fit_speedup = fit_speedup;
            standard_preprocess_speedup = table_speedup;
        }
        windows.push(JsonValue::obj(vec![
            ("window", JsonValue::Str(label.into())),
            ("reads", JsonValue::Num(reads.len() as f64)),
            ("fit_chain_speedup_p50", JsonValue::Num((fit_speedup * 100.0).round() / 100.0)),
            ("preprocess_backends", JsonValue::Arr(backend_rows)),
            ("stages", JsonValue::Arr(stages.iter().map(Stage::json).collect())),
        ]));
    }
    println!(
        "\n  standard window: preprocess (table) ×{standard_preprocess_speedup:.2}, \
         fit chain ×{standard_fit_speedup:.2}, end-to-end ×{standard_window_speedup:.2}"
    );

    let value = rfp_obs::report::snapshot(
        "frontend_profile",
        vec![
            (
                "units",
                JsonValue::obj(vec![(
                    "latency",
                    JsonValue::Str("microseconds per antenna window (p50/p90)".into()),
                )]),
            ),
            ("windows", JsonValue::Arr(windows)),
            // Gate metrics: the fit-chain and table-preprocess ratios are
            // floored at ≥2× by scripts/bench_gate; the end-to-end window
            // p50 is regression-checked against the committed snapshot.
            (
                "standard_fit_speedup_p50",
                JsonValue::Num((standard_fit_speedup * 100.0).round() / 100.0),
            ),
            (
                "standard_preprocess_speedup_p50",
                JsonValue::Num((standard_preprocess_speedup * 100.0).round() / 100.0),
            ),
            (
                "standard_window_speedup_p50",
                JsonValue::Num((standard_window_speedup * 100.0).round() / 100.0),
            ),
        ],
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontend.json");
    let path =
        std::env::var("FRONTEND_PROFILE_OUT").unwrap_or_else(|_| default_path.to_string());
    match rfp_obs::report::write_json(std::path::Path::new(&path), &value) {
        Ok(()) => println!("\nsnapshot written to {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
