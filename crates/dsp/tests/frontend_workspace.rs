//! Property suite pinning the workspace front-end kernels to the frozen
//! pre-rework implementations in [`rfp_dsp::reference`].
//!
//! The public allocating APIs (`preprocess_reads`, `theil_sen`,
//! `huber_line_fit`, …) delegate to the workspace kernels, so comparing
//! them against the reference module exercises the optimized paths while
//! using a genuinely independent oracle. Everything except the robust fit
//! is required to be **bit-identical** (same summation order, same
//! order-statistic selection); the robust fit's incremental
//! downdated-sums refit is algebraically equal but re-associates the
//! sums, so it gets a tight tolerance with an exactly-equal inlier mask.

use proptest::prelude::*;
use rfp_dsp::linfit::{ols, theil_sen, weighted_ols};
use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig, RawRead};
use rfp_dsp::reference;
use rfp_dsp::robust::{huber_line_fit, robust_line_fit, RobustFitConfig};
use rfp_dsp::trig::{self, TrigProvider};
use rfp_dsp::FrontEndWorkspace;

/// Read sets covering the degenerate shapes the front end must survive:
/// sparse channels (below `min_reads`), single-read channels, repeated
/// identical phases (zero spread), and channel indices far above the
/// dense-slot range.
fn arb_reads() -> impl Strategy<Value = Vec<RawRead>> {
    proptest::collection::vec(
        (0usize..30, 0.0f64..std::f64::consts::TAU, -80.0f64..-30.0, 0u8..2),
        0..120,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .enumerate()
            .map(|(i, (mut ch, phase, rssi, sparse))| {
                if sparse == 1 {
                    // A few channels land way outside the dense range.
                    ch += 900;
                }
                RawRead {
                    channel: ch,
                    frequency_hz: 902.75e6 + ch as f64 * 0.5e6,
                    phase,
                    rssi_dbm: rssi,
                    timestamp_s: i as f64 * 0.01,
                    phase_code: None,
                }
            })
            .collect()
    })
}

/// Snaps every read of `reads` onto the reader's 12-bit grid, attaching
/// the phase codes — the shape real quantized reader data arrives in.
fn quantized(reads: &[RawRead]) -> Vec<RawRead> {
    reads
        .iter()
        .map(|r| {
            let lsb = trig::PHASE_LSB_RAD;
            let phase =
                rfp_geom::angle::wrap_tau((r.phase / lsb).round() * lsb);
            RawRead { phase, phase_code: trig::code_for_phase(phase), ..*r }
        })
        .collect()
}

/// Dwell-ordered windows, the shape the run-wise passes exploit: runs of
/// 1–32 consecutive reads per channel dwell, channels revisited later in
/// the window (so runs resume from stored slot sums), a mix of coded
/// (on-grid) and uncoded reads, and — per channel — reads on the channel
/// phase, π-jumped reads, and reads within three codes of the ±π/2 fold
/// boundary around the channel phase.
fn arb_dwell_window() -> impl Strategy<Value = Vec<RawRead>> {
    (
        proptest::collection::vec((0usize..12, 1usize..=32, 0u64..u64::MAX), 1..24),
        0u64..u64::MAX,
    )
        .prop_map(|(dwells, window_seed)| {
            let lsb = trig::PHASE_LSB_RAD;
            let mut reads = Vec::new();
            for (channel, len, dwell_seed) in dwells {
                // Per-channel phase code, shared by every dwell of the channel.
                let base = (window_seed ^ (channel as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    % 4096;
                let mut rng = dwell_seed;
                for _ in 0..len {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = rng >> 16;
                    let jitter = (r >> 8) % 7; // 0..=6, centred on 3
                    let offset = match r % 8 {
                        // On the channel phase, a few codes of noise.
                        0..=3 => jitter,
                        // π-jumped.
                        4 | 5 => 2048 + jitter,
                        // Within three codes of the fold boundary, either side.
                        6 => 1024 + jitter,
                        _ => 3072 + jitter,
                    };
                    let code = ((base + offset + 4096 - 3) % 4096) as u16;
                    let grid = code as f64 * lsb;
                    let (phase, phase_code) = if (r >> 20) % 3 == 0 {
                        // Uncoded: a continuous phase between grid points.
                        let frac = 0.1 + 0.8 * ((r >> 24) % 1000) as f64 / 1000.0;
                        (rfp_geom::angle::wrap_tau(grid + frac * lsb), None)
                    } else {
                        (grid, Some(code))
                    };
                    assert_eq!(phase_code.is_some(), trig::code_for_phase(phase).is_some());
                    reads.push(RawRead {
                        channel,
                        frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
                        phase,
                        rssi_dbm: -60.0 + ((r >> 32) % 200) as f64 * 0.1,
                        timestamp_s: reads.len() as f64 * 0.004,
                        phase_code,
                    });
                }
            }
            reads
        })
}

/// Bitwise comparison of two preprocess results (`==` on `f64` would
/// equate `±0`).
fn assert_bitwise(
    actual: &Result<Vec<rfp_dsp::ChannelObservation>, rfp_dsp::preprocess::PreprocessError>,
    expected: &Result<Vec<rfp_dsp::ChannelObservation>, rfp_dsp::preprocess::PreprocessError>,
    what: &str,
) {
    match (actual, expected) {
        (Ok(a), Ok(e)) => {
            assert_eq!(a.len(), e.len(), "{what}: channel count");
            for (x, y) in a.iter().zip(e) {
                assert_eq!((x.channel, x.read_count), (y.channel, y.read_count), "{what}");
                for (u, v) in [
                    (x.frequency_hz, y.frequency_hz),
                    (x.phase, y.phase),
                    (x.rssi_dbm, y.rssi_dbm),
                    (x.phase_spread, y.phase_spread),
                ] {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: channel {}", x.channel);
                }
            }
        }
        (a, e) => assert_eq!(a, e, "{what}"),
    }
}

/// Arbitrary fit data with occasional duplicate x values (zero-dx slope
/// pairs) and occasional exactly-repeated y values.
fn arb_fit_data() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    proptest::collection::vec((0i32..40, -50.0f64..50.0), 2..60).prop_map(|pts| {
        let xs: Vec<f64> = pts.iter().map(|&(xi, _)| xi as f64 * 0.37).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, y)| y).collect();
        (xs, ys)
    })
}

proptest! {
    #[test]
    fn preprocess_matches_reference_exactly(
        reads in arb_reads(),
        pi_jumps in proptest::bool::ANY,
        min_reads in 0usize..3,
        quantize in proptest::bool::ANY,
        use_libm in proptest::bool::ANY,
    ) {
        // Table (the default) must be bit-identical to the reference on
        // both codeless reads (libm fallback) and quantized, code-carrying
        // reads (exact table lookups); Libm trivially so.
        let reads = if quantize { quantized(&reads) } else { reads };
        let config = PreprocessConfig {
            correct_pi_jumps: pi_jumps,
            min_reads_per_channel: min_reads,
            trig: if use_libm { TrigProvider::Libm } else { TrigProvider::Table },
        };
        let expected = reference::preprocess_reads(&reads, &config);
        let actual = preprocess_reads(&reads, &config);
        // Bit-identical including the error case: `==` on f64 fields.
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn workspace_carries_no_state_between_calls(
        first in arb_reads(),
        second in arb_reads(),
    ) {
        let config = PreprocessConfig::default();
        let mut reused = FrontEndWorkspace::default();
        let mut out = Vec::new();
        let _ = rfp_dsp::preprocess_reads_with(&mut reused, &first, &config, &mut out);
        let reused_result =
            rfp_dsp::preprocess_reads_with(&mut reused, &second, &config, &mut out)
                .map(|()| out.clone());

        let mut fresh = FrontEndWorkspace::default();
        let mut fresh_out = Vec::new();
        let fresh_result =
            rfp_dsp::preprocess_reads_with(&mut fresh, &second, &config, &mut fresh_out)
                .map(|()| fresh_out.clone());
        prop_assert_eq!(reused_result, fresh_result);
    }

    #[test]
    fn ols_matches_reference_exactly(data in arb_fit_data()) {
        let (xs, ys) = data;
        prop_assert_eq!(ols(&xs, &ys), reference::ols(&xs, &ys));
    }

    #[test]
    fn weighted_ols_matches_reference_exactly(
        data in arb_fit_data(),
        wseed in 0u64..1000,
    ) {
        let (xs, ys) = data;
        let weights: Vec<f64> = (0..xs.len())
            .map(|i| ((i as u64 * 2654435761 + wseed) % 7) as f64)
            .collect();
        prop_assert_eq!(
            weighted_ols(&xs, &ys, &weights),
            reference::weighted_ols(&xs, &ys, &weights)
        );
    }

    #[test]
    fn theil_sen_matches_reference_exactly(data in arb_fit_data()) {
        let (xs, ys) = data;
        prop_assert_eq!(theil_sen(&xs, &ys), reference::theil_sen(&xs, &ys));
    }

    #[test]
    fn huber_matches_reference_exactly(
        data in arb_fit_data(),
        delta in 0.1f64..5.0,
        iterations in 1usize..6,
    ) {
        let (xs, ys) = data;
        prop_assert_eq!(
            huber_line_fit(&xs, &ys, delta, iterations),
            reference::huber_line_fit(&xs, &ys, delta, iterations)
        );
    }

    #[test]
    fn degenerate_channels_match_reference_for_every_backend(
        quantize in proptest::bool::ANY,
        pi_jumps in proptest::bool::ANY,
    ) {
        // The fixed degenerate shapes below (dropped slots, single-read
        // channels, identical phases, vanishing double-angle resultant)
        // run through each backend; proptest just sweeps the four
        // (quantize, π-jump) corners.
        for reads in degenerate_windows() {
            let reads = if quantize { quantized(&reads) } else { reads };
            check_backends_against_reference(&reads, pi_jumps);
        }
    }

    #[test]
    fn dwell_windows_match_reference_bitwise(
        reads in arb_dwell_window(),
        min_reads in 1usize..5,
    ) {
        for pi_jumps in [true, false] {
            let base = PreprocessConfig {
                correct_pi_jumps: pi_jumps,
                min_reads_per_channel: min_reads,
                trig: TrigProvider::Libm,
            };
            let expected = reference::preprocess_reads(&reads, &base);
            // Reads of channels that survive the min-reads filter, and how
            // many of those and of all reads carry a phase code.
            let mut per_channel = std::collections::BTreeMap::new();
            for r in &reads {
                *per_channel.entry(r.channel).or_insert(0usize) += 1;
            }
            let kept = |r: &&RawRead| per_channel[&r.channel] >= min_reads;
            let coded = reads.iter().filter(|r| r.phase_code.is_some()).count() as u64;
            let kept_reads = reads.iter().filter(kept).count() as u64;
            let kept_coded =
                reads.iter().filter(kept).filter(|r| r.phase_code.is_some()).count() as u64;
            let n = reads.len() as u64;
            for trig_backend in [TrigProvider::Table, TrigProvider::Libm] {
                let mut ws = FrontEndWorkspace::default();
                let mut out = Vec::new();
                let config = PreprocessConfig { trig: trig_backend, ..base };
                let actual = rfp_dsp::preprocess_reads_with(&mut ws, &reads, &config, &mut out)
                    .map(|()| out.clone());
                assert_bitwise(
                    &actual,
                    &expected,
                    &format!("{trig_backend:?}, pi_jumps={pi_jumps}, min_reads={min_reads}"),
                );
                // One phasor per read in pass 1; in π-jump mode one more
                // per read of a kept channel (the fold) — only when some
                // channel is kept.
                let fold = pi_jumps && expected.is_ok();
                let expected_hits = match trig_backend {
                    TrigProvider::Table => [
                        coded + if fold { kept_coded } else { 0 },
                        0,
                        (n - coded) + if fold { kept_reads - kept_coded } else { 0 },
                        0,
                    ],
                    _ => [0, 0, n + if fold { n } else { 0 }, 0],
                };
                prop_assert_eq!(ws.trig_hits(), expected_hits);
            }
        }
    }

    #[test]
    fn theil_sen_zero_slopes_match_reference_bitwise(
        steps in proptest::collection::vec((1u32..50, 0usize..5), 2..60),
    ) {
        // Strictly increasing xs (the front end's frequency columns) with
        // ys drawn from a handful of values: repeated ys give exact zero
        // slopes, and the ±0 pair gives negative zeros.
        const YS: [f64; 5] = [0.0, -0.0, 1.25, -3.5, 1.25];
        let mut x = 902.75e6;
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (dx, yi) in steps {
            x += dx as f64 * 0.5e6;
            xs.push(x);
            ys.push(YS[yi]);
        }
        let fit = theil_sen(&xs, &ys).expect("strictly increasing xs");
        // Equal to the frozen reference as values, like every Theil–Sen
        // pin (the reference's stable sort may pick the other zero of a
        // ±0 tie than in-place selection does)…
        prop_assert_eq!(fit, reference::theil_sen(&xs, &ys).expect("fittable"));
        // …and bitwise equal to comparator-path selection over the slopes
        // in enumeration order, which the integer-key median must fall
        // back to whenever a zero slope makes the ±0 tie ambiguous.
        let mut slopes = Vec::new();
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                slopes.push((ys[j] - ys[i]) / (xs[j] - xs[i]));
            }
        }
        let median = rfp_dsp::stats::median_in_place(&mut slopes).expect("nonempty");
        prop_assert_eq!(fit.slope.to_bits(), median.to_bits());
    }

    #[test]
    fn robust_matches_reference_with_identical_inliers(data in arb_fit_data()) {
        let (xs, ys) = data;
        let config = RobustFitConfig::default();
        let expected = reference::robust_line_fit(&xs, &ys, &config);
        let actual = robust_line_fit(&xs, &ys, &config);
        match (actual, expected) {
            (Ok(a), Ok(e)) => {
                // The incremental downdated refit re-associates the OLS
                // sums, so the fit is equal only to rounding.
                prop_assert!((a.fit.slope - e.fit.slope).abs()
                    <= 1e-9 * (1.0 + e.fit.slope.abs()));
                prop_assert!((a.fit.intercept - e.fit.intercept).abs()
                    <= 1e-9 * (1.0 + e.fit.intercept.abs()));
                prop_assert_eq!(a.inliers, e.inliers);
                prop_assert_eq!(a.iterations, e.iterations);
            }
            (a, e) => prop_assert_eq!(a.is_err(), e.is_err()),
        }
    }
}

/// One raw read with the given channel and phase (codeless; `quantized`
/// snaps it onto the grid where needed).
fn plain_read(channel: usize, phase: f64) -> RawRead {
    RawRead {
        channel,
        frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
        phase: rfp_geom::angle::wrap_tau(phase),
        rssi_dbm: -55.0,
        timestamp_s: channel as f64 * 0.2,
        phase_code: None,
    }
}

/// The degenerate channel shapes the reference oracle pins for every
/// trig backend: a dropped (below-min-reads) channel slot next to kept
/// ones, single-read channels, a channel whose reads all share one
/// identical phase (zero spread, unit resultant), and a channel whose
/// double-angle resultant vanishes (phases π/2 apart — the
/// `first_phase` fallback axis).
fn degenerate_windows() -> Vec<Vec<RawRead>> {
    vec![
        // Single-read channels only.
        vec![plain_read(0, 0.4), plain_read(1, 0.6), plain_read(2, 0.8)],
        // A thin channel (1 read) between full ones — dropped whenever
        // min_reads_per_channel is 2 (exercised below).
        vec![
            plain_read(0, 0.4),
            plain_read(0, 0.45),
            plain_read(1, 1.9),
            plain_read(2, 0.5),
            plain_read(2, 0.55),
        ],
        // All reads of every channel carry the identical phase.
        vec![
            plain_read(0, 1.234),
            plain_read(0, 1.234),
            plain_read(0, 1.234),
            plain_read(1, 1.3),
            plain_read(1, 1.3),
        ],
        // Vanishing double-angle resultant: two reads π/2 apart double to
        // antipodal phasors, forcing the first-phase fallback axis.
        vec![
            plain_read(0, 0.7),
            plain_read(0, 0.7 + std::f64::consts::FRAC_PI_2),
            plain_read(1, 0.9),
        ],
    ]
}

/// Runs one window through all three backends and both min-read settings,
/// pinning Table and Libm bitwise to the reference and Polynomial to its
/// documented tolerance with identical channel structure.
fn check_backends_against_reference(reads: &[RawRead], pi_jumps: bool) {
    for min_reads in [1usize, 2] {
        let base = PreprocessConfig {
            correct_pi_jumps: pi_jumps,
            min_reads_per_channel: min_reads,
            trig: TrigProvider::Libm,
        };
        let expected = reference::preprocess_reads(reads, &base);
        for trig_backend in [TrigProvider::Libm, TrigProvider::Table] {
            let actual =
                preprocess_reads(reads, &PreprocessConfig { trig: trig_backend, ..base });
            assert_eq!(
                actual, expected,
                "backend {trig_backend:?}, pi_jumps={pi_jumps}, min_reads={min_reads}"
            );
        }
        let poly = preprocess_reads(
            reads,
            &PreprocessConfig { trig: TrigProvider::Polynomial, ..base },
        );
        match (&poly, &expected) {
            (Ok(p), Ok(e)) => {
                assert_eq!(p.len(), e.len(), "polynomial channel mask diverged");
                for (a, b) in p.iter().zip(e) {
                    assert_eq!(a.channel, b.channel);
                    assert_eq!(a.read_count, b.read_count);
                    assert!(
                        (a.phase - b.phase).abs() < 1e-9,
                        "polynomial phase {} vs libm {} (pi_jumps={pi_jumps})",
                        a.phase,
                        b.phase
                    );
                    // spread = √(−2 ln r) is ill-conditioned at r → 1
                    // (identical-phase channels), hence the looser bound.
                    assert!((a.phase_spread - b.phase_spread).abs() < 1e-6);
                }
            }
            (p, e) => assert_eq!(p.is_err(), e.is_err()),
        }
    }
}

/// A dwell-ordered window over `channels`, hopping through them in a
/// scrambled order, with each channel's frequency given by `freq`.
fn hop_window(channels: &[usize], freq: impl Fn(usize) -> f64, reads_per: usize) -> Vec<RawRead> {
    let mut reads = Vec::new();
    for k in 0..channels.len() {
        // A permutation for every length used below (coprime to 7).
        let hop = channels[(k * 7 + 3) % channels.len()];
        for r in 0..reads_per {
            let jump = if (hop + r).is_multiple_of(3) { std::f64::consts::PI } else { 0.0 };
            let phase = 0.3 + 1.1 * hop as f64 + 0.01 * r as f64 + jump;
            reads.push(RawRead { frequency_hz: freq(hop), ..plain_read(hop, phase) });
        }
    }
    reads
}

/// The batch channel order is a (frequency, channel) sort of the kept
/// slots. It must give the reference ordering bit for bit: an ascending
/// plan, tied frequencies, a plan that descends or is scrambled against
/// the ids, a dropped out-of-order channel, dense and sparse large ids,
/// all through one reused workspace.
#[test]
fn batch_channel_order_matches_reference() {
    let dense: Vec<usize> = (0..50).collect();
    let spaced: Vec<usize> = (0..20).map(|c| 3 * c + 1).collect();
    let sparse = [3usize, 1000, 70_000, 5, 250_000];
    let plan = |c: usize| 902.75e6 + c as f64 * 0.5e6;
    let descending = |c: usize| 927.25e6 - c as f64 * 0.5e6;
    let scrambled = |c: usize| 902.75e6 + ((c * 17) % 53) as f64 * 0.5e6;
    let tied = |c: usize| 902.75e6 + (c / 2) as f64 * 0.5e6;
    let mut windows = Vec::new();
    for ids in [&dense[..], &spaced[..], &sparse[..]] {
        windows.push(hop_window(ids, plan, 3));
        windows.push(hop_window(ids, descending, 3));
        windows.push(hop_window(ids, scrambled, 3));
        windows.push(hop_window(ids, tied, 3));
    }
    // Channel 7 is thin (dropped at min_reads 2) and out of order: only
    // kept channels take part in the order.
    let mut thin_out_of_order = hop_window(&dense[..20], plan, 2);
    thin_out_of_order.retain(|r| r.channel != 7);
    thin_out_of_order.push(RawRead { frequency_hz: 930e6, ..plain_read(7, 0.2) });
    windows.push(thin_out_of_order);

    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    for (w, reads) in windows.iter().enumerate() {
        for min_reads in [1usize, 2] {
            for pi_jumps in [true, false] {
                let cfg = PreprocessConfig {
                    correct_pi_jumps: pi_jumps,
                    min_reads_per_channel: min_reads,
                    trig: TrigProvider::Libm,
                };
                let actual = rfp_dsp::preprocess_reads_with(&mut ws, reads, &cfg, &mut out)
                    .map(|()| out.clone());
                let expected = reference::preprocess_reads(reads, &cfg);
                let what = format!("window {w}, min_reads {min_reads}, pi_jumps {pi_jumps}");
                assert_bitwise(&actual, &expected, &what);
            }
        }
    }
}
