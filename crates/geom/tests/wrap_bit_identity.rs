//! Bit-identity of the `fmod`-free angle wrap against the `rem_euclid`
//! definition it replaces.
//!
//! `angle::wrap_tau` reduces finite inputs below
//! `angle::EXACT_REDUCE_LIMIT` with one fused multiply-add; every phase
//! the front end and the solver compare goes through it (directly or via
//! `wrap_pi`, `difference`, `distance` and `distance_in_range`). Each of
//! them must return exactly the bits of the `rem_euclid` formulation
//! below, including the sign of a zero result.

use rfp_geom::angle::{
    difference, distance, distance_in_range, wrap_pi, wrap_tau, EXACT_REDUCE_LIMIT,
};
use std::f64::consts::{PI, TAU};

/// The `rem_euclid` definition of `wrap_tau` (libm `fmod` underneath).
fn wrap_tau_ref(theta: f64) -> f64 {
    let w = theta.rem_euclid(TAU);
    if w >= TAU {
        w - TAU
    } else {
        w
    }
}

fn wrap_pi_ref(theta: f64) -> f64 {
    let w = wrap_tau_ref(theta);
    if w > PI {
        w - TAU
    } else {
        w
    }
}

/// Inputs at every magnitude: quotient boundaries near multiples of τ
/// (both signs), quarter turns, zeros, subnormals, the reduction limit's
/// edge, 200k random values over six scales, and non-finite values.
fn inputs() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 3.0,
        PI,
        -PI,
        TAU,
        -TAU,
        1e12,
        -1e12,
        f64::MAX,
        f64::MIN,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for k in -40i32..=40 {
        let m = k as f64 * TAU;
        let (mut lo, mut hi) = (m, m);
        for _ in 0..6 {
            lo = lo.next_down();
            hi = hi.next_up();
            xs.extend([lo, hi]);
        }
        for f in [0.25, 0.5, 0.75] {
            let x = m + f * TAU;
            xs.extend([x, x.next_up(), x.next_down()]);
        }
    }
    // Exact negative (and positive) multiples of τ: fmod returns a zero
    // carrying the input's sign.
    for k in [1.0, 2.0, 4.0, 1024.0, 65536.0, 2f64.powi(20)] {
        xs.extend([k * TAU, -k * TAU]);
    }
    let mut edge = EXACT_REDUCE_LIMIT;
    let mut below = EXACT_REDUCE_LIMIT;
    for _ in 0..8 {
        xs.extend([edge, -edge, below, -below]);
        edge = edge.next_up();
        below = below.next_down();
    }
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..200_000 {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let u = (seed >> 11) as f64 / (1u64 << 53) as f64;
        let scale = [1.0, 10.0, 300.0, 1e6, 4.2e9, 1e10][(seed % 6) as usize];
        xs.push((u - 0.5) * 2.0 * scale);
    }
    xs
}

/// Same bits, treating every NaN as equal (the payload is not part of
/// the contract).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn wrap_tau_is_bit_identical_to_rem_euclid() {
    for x in inputs() {
        let (got, want) = (wrap_tau(x), wrap_tau_ref(x));
        assert!(same(got, want), "wrap_tau({x:e}) = {got:e}, rem_euclid gives {want:e}");
        let (got, want) = (wrap_pi(x), wrap_pi_ref(x));
        assert!(same(got, want), "wrap_pi({x:e}) = {got:e}, rem_euclid gives {want:e}");
    }
}

#[test]
fn difference_and_distance_are_bit_identical_to_rem_euclid() {
    for d in inputs() {
        for b in [0.0, 1.3, -57.2] {
            let a = d + b;
            let want = wrap_pi_ref(a - b);
            let got = difference(a, b);
            assert!(same(got, want), "difference({a:e}, {b:e}) = {got:e}, want {want:e}");
            let got = distance(a, b);
            assert!(same(got, want.abs()), "distance({a:e}, {b:e}) = {got:e}");
            if (a - b).abs() < EXACT_REDUCE_LIMIT {
                let fast = distance_in_range(a, b);
                assert_eq!(fast.to_bits(), want.abs().to_bits(), "distance_in_range({a:e}, {b:e})");
            }
        }
    }
}

#[test]
fn zero_results_keep_the_sign_of_the_input() {
    assert_eq!(wrap_tau(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(wrap_tau(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(wrap_tau(-TAU).to_bits(), (-0.0f64).to_bits());
    assert_eq!(wrap_tau(-2.0 * TAU).to_bits(), (-0.0f64).to_bits());
    assert_eq!(wrap_tau(TAU).to_bits(), 0.0f64.to_bits());
    // A tiny negative input rounds `x + τ` up to τ, which maps to +0.0.
    assert_eq!(wrap_tau(-1e-300).to_bits(), 0.0f64.to_bits());
    assert_eq!(wrap_pi(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(difference(1.0, 1.0).to_bits(), 0.0f64.to_bits());
}

#[test]
fn non_finite_inputs_stay_nan() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(wrap_tau(x).is_nan());
        assert!(wrap_pi(x).is_nan());
        assert!(distance(x, 0.0).is_nan());
    }
}
