//! The run shape every workload shares: seeded inputs, timed set-up,
//! a reference pass, then timed passes over the same inputs until the
//! time budget is spent, with every pass checked against the reference.

use crate::alloc;
use crate::layers::Layers;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// only on `--seed` and never on the simulator's internal RNG layout.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of every workload's fixed deployment: the tag devices, their
/// calibration and training corpus, and the tags' poses. `--seed` draws
/// the reads (noise, hop order, π jumps), so accuracy moves between seeds
/// by measurement noise only, not by where the tags happen to stand.
pub const LAYOUT_SEED: u64 = 0x5EED_1A70;

/// Maps `f` over `0..n` on two threads (input generation only); the
/// results are in index order, so they do not depend on scheduling.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mid = n / 2;
    let (mut low, high) = std::thread::scope(|s| {
        let high = s.spawn(|| (mid..n).map(&f).collect::<Vec<T>>());
        let low: Vec<T> = (0..mid).map(&f).collect();
        (low, high.join().expect("input generator thread panicked"))
    });
    low.extend(high);
    low
}

/// Input scale: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` at full scale, `tiny` otherwise.
    pub fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One op's output, kept bit-exact so passes can be compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// The estimate's fields (layout per workload); `None` when the op
    /// returned no estimate.
    pub estimate: Option<[f64; 8]>,
    /// The material class index, when the op classified one.
    pub class: Option<usize>,
}

impl Record {
    pub const NONE: Record = Record {
        estimate: None,
        class: None,
    };

    /// Bitwise equality (distinguishes `-0.0` from `0.0`, equates NaNs
    /// with equal payloads).
    pub fn same_bits(&self, other: &Record) -> bool {
        let bits = |r: &Record| r.estimate.map(|e| e.map(f64::to_bits));
        bits(self) == bits(other) && self.class == other.class
    }
}

/// FNV-1a over a pass's records: the estimate digest.
pub fn digest(records: &[Record]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for r in records {
        match r.estimate {
            Some(e) => e.iter().for_each(|v| eat(v.to_bits())),
            None => eat(u64::MAX),
        }
        eat(r.class.map_or(u64::MAX, |c| c as u64));
    }
    h
}

/// Accuracy of the reference pass against the simulator's truth.
#[derive(Debug, Default)]
pub struct Accuracy {
    /// Position error of every op that returned an estimate, cm.
    pub loc_cm: Vec<f64>,
    /// Orientation error of the same ops, degrees.
    pub orient_deg: Vec<f64>,
    /// Windows given a material class, and how many were right.
    pub classified: u64,
    pub class_correct: u64,
    /// Ops attempted / ops with an estimate.
    pub ops: u64,
    pub estimates: u64,
}

impl Accuracy {
    pub fn estimate_rate(&self) -> f64 {
        self.estimates as f64 / self.ops.max(1) as f64
    }

    pub fn material_acc(&self) -> f64 {
        self.class_correct as f64 / self.classified.max(1) as f64
    }
}

/// Sanity floors a correct build must clear; a broken build that posts
/// fast numbers fails here. Anchored to the paper's figures (7.61 cm,
/// 9.83°, 88 %) with a per-workload factor for harder scenes.
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    pub loc_p50_cm_max: f64,
    pub orient_p50_deg_max: f64,
    pub material_acc_min: f64,
    pub estimate_rate_min: f64,
}

pub const PAPER_LOC_CM: f64 = 7.61;
pub const PAPER_ORIENT_DEG: f64 = 9.83;
pub const PAPER_MATERIAL_ACC: f64 = 0.88;

/// What a workload implements; [`run`] drives it.
pub trait Workload {
    /// Returns the op state to the start of a pass (warm priors cleared,
    /// streaming sessions rebuilt and primed). Untimed, except that the
    /// first call is part of the set-up.
    fn reset(&mut self);

    /// One untraced pass: every op in order, each timed on its own
    /// (`lat_ns`), each output appended to `out`.
    fn pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>);

    /// One traced pass over the same ops, recomposed from the public
    /// layer calls and timed per layer.
    fn traced_pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>, layers: &mut Layers);

    /// Accuracy of a reference pass (material from the op outputs, or
    /// from the workload's material check set).
    fn accuracy(&mut self, reference: &[Record]) -> Accuracy;

    /// The floors this workload's accuracy must clear.
    fn floors(&self) -> Floors;
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Op rate the latency buffer is pre-sized for (above every workload's).
const MAX_OPS_PER_S: f64 = 50_000.0;

/// The seeded ops must clear the sanity floors too.
fn check_seeded_floors<W: Workload>(w: &mut W, reference: &[Record], outcome: &mut Outcome) {
    let seeded = w.accuracy(reference);
    check_floors(&seeded, &w.floors(), "seeded ops", &mut outcome.problems);
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn us(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&n| n as f64 / 1e3).collect())
}

/// Passes over `reference`'s inputs until `budget` of pass time is spent
/// (at least one pass). Returns (ops, pass time, mismatching ops, passes).
fn timed_passes<W: Workload>(
    w: &mut W,
    budget: Duration,
    reference: &[Record],
    out: &mut Vec<Record>,
    lat_ns: &mut Vec<u64>,
) -> (u64, Duration, u64, u64) {
    let mut spent = Duration::ZERO;
    let mut mismatches = 0u64;
    let mut passes = 0u64;
    let mut ops = 0u64;
    while passes == 0 || spent < budget {
        out.clear();
        w.reset();
        let t = Instant::now();
        w.pass(lat_ns, out);
        spent += t.elapsed();
        passes += 1;
        ops += out.len() as u64;
        mismatches += out.len().abs_diff(reference.len()) as u64;
        mismatches += out
            .iter()
            .zip(reference)
            .filter(|(a, b)| !a.same_bits(b))
            .count() as u64;
    }
    (ops, spent, mismatches, passes)
}

/// Runs a workload: `build` is its set-up, timed [`SETUP_REPS`] times.
pub fn run<W: Workload>(
    seconds: f64,
    trace: bool,
    ops_per_pass: usize,
    mut build: impl FnMut() -> W,
) -> Outcome {
    let mut outcome = Outcome::default();
    // The harness's own buffers are sized before the heap baseline, so
    // `heap_peak_mb` counts the program's memory only.
    let mut reference = Vec::with_capacity(ops_per_pass);
    let mut out = Vec::with_capacity(ops_per_pass);
    let mut lat_ns = Vec::with_capacity(ops_per_pass + (seconds * MAX_OPS_PER_S) as usize);
    let base_live = alloc::live_bytes();
    alloc::reset_peak();

    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        drop(workload.take());
        let t = Instant::now();
        let mut w = build();
        w.reset();
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    // Reference pass: warms caches and fixes the outputs every later pass
    // must reproduce bit for bit.
    w.pass(&mut lat_ns, &mut reference);
    lat_ns.clear();
    let ref_digest = digest(&reference);
    outcome.notes.push(format!(
        "reference pass: {} ops, estimate digest {ref_digest:016x}",
        reference.len()
    ));

    let budget = Duration::from_secs_f64(seconds);
    if trace {
        run_traced(&mut w, budget, &reference, &mut outcome);
        check_seeded_floors(&mut w, &reference, &mut outcome);
        return outcome;
    }
    let (ops, spent, mismatches, passes) =
        timed_passes(&mut w, budget, &reference, &mut out, &mut lat_ns);
    let heap_mb = alloc::peak_bytes().saturating_sub(base_live) as f64 / (1024.0 * 1024.0);
    check_seeded_floors(&mut w, &reference, &mut outcome);
    outcome.attempted = ops;
    outcome.failed = mismatches;
    if mismatches > 0 {
        outcome.problems.push(format!(
            "{mismatches} ops differ from the reference pass (same inputs, same seed)"
        ));
    }
    let per_op = per_op_medians(&lat_ns, reference.len());
    let (rate, segments) = segment_rate(&lat_ns);
    outcome.notes.push(format!(
        "timed phase: {passes} passes of {} distinct ops (p99 has {} distinct ops beyond it), \
         {segments} rate segments of {SEGMENT_OPS} ops; {:.2} s of pass time",
        per_op.len(),
        per_op.len() - (0.99 * per_op.len() as f64).ceil() as usize,
        spent.as_secs_f64()
    ));
    outcome.metrics = vec![
        metric("latency_p50_us", percentile(&per_op, 0.50), "us"),
        metric("latency_p99_us", percentile(&per_op, 0.99), "us"),
        metric("throughput_per_s", rate, "1/s"),
        metric("setup_s", percentile(&sorted(setup_s), 0.5), "s"),
        metric("heap_peak_mb", heap_mb, "MiB"),
    ];
    outcome
}

/// Each distinct op's median wall time over the timed passes, in µs,
/// sorted. Every pass runs the same ops in the same order, so op `i` of
/// pass `k` sits at `k * n + i`. A host stall has to hit the same op in
/// most passes to move its time, so the percentiles over these medians
/// follow the program, not the neighbours of this VM.
fn per_op_medians(lat_ns: &[u64], n: usize) -> Vec<f64> {
    let passes = lat_ns.len() / n.max(1);
    let mut times = Vec::with_capacity(passes);
    let per_op = (0..n)
        .map(|i| {
            times.clear();
            times.extend((0..passes).map(|k| lat_ns[k * n + i]));
            times.sort_unstable();
            times[(passes - 1) / 2] as f64 / 1e3
        })
        .collect();
    sorted(per_op)
}

/// Ops per throughput segment.
pub const SEGMENT_OPS: usize = 2000;

/// The closed-loop op rate: the median over consecutive segments of
/// [`SEGMENT_OPS`] ops of each segment's ops ÷ summed op time, plus the
/// segment count. A run shorter than one segment is one segment.
fn segment_rate(lat_ns: &[u64]) -> (f64, usize) {
    let chunks: Vec<&[u64]> = if lat_ns.len() < SEGMENT_OPS {
        vec![lat_ns]
    } else {
        lat_ns.chunks_exact(SEGMENT_OPS).collect()
    };
    let rates = chunks
        .iter()
        .map(|c| c.len() as f64 / (c.iter().sum::<u64>() as f64 / 1e9));
    (percentile(&sorted(rates.collect()), 0.5), chunks.len())
}

/// The seed every workload's accuracy corpus is generated with.
pub const ACCURACY_SEED: u64 = 0;

/// Runs the workload once over its accuracy corpus (its inputs at
/// [`ACCURACY_SEED`]) and appends the accuracy metrics. The corpus does
/// not depend on `--seed`, so the same build reports the same accuracy
/// on every run, and any change of behaviour moves it exactly.
pub fn corpus_accuracy<W: Workload>(mut w: W, outcome: &mut Outcome) {
    w.reset();
    let mut records = Vec::new();
    w.pass(&mut Vec::new(), &mut records);
    let acc = w.accuracy(&records);
    check_floors(&acc, &w.floors(), "accuracy corpus", &mut outcome.problems);
    outcome.notes.push(format!(
        "accuracy corpus: {} ops, {} estimates, {} classified ({} right), digest {:016x}",
        acc.ops,
        acc.estimates,
        acc.classified,
        acc.class_correct,
        digest(&records)
    ));
    let loc = sorted(acc.loc_cm.clone());
    let orient = sorted(acc.orient_deg.clone());
    outcome.metrics.extend([
        metric("estimate_rate", acc.estimate_rate(), "ratio"),
        metric("loc_err_p50_cm", percentile(&loc, 0.50), "cm"),
        metric("loc_err_p90_cm", percentile(&loc, 0.90), "cm"),
        metric("orient_err_p50_deg", percentile(&orient, 0.50), "deg"),
        metric("material_acc", acc.material_acc(), "ratio"),
    ]);
}

/// Largest share of traced op time the named layers may leave
/// unattributed before the traced split is declared incomplete.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

fn run_traced<W: Workload>(
    w: &mut W,
    budget: Duration,
    reference: &[Record],
    outcome: &mut Outcome,
) {
    // Alternate untraced and traced passes so both see the same machine
    // state; the untraced half gives the overhead's base.
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut layers = Layers::default();
    let mut out = Vec::with_capacity(reference.len());
    let mut spent = Duration::ZERO;
    let mut mismatches = 0u64;
    let mut passes = 0u64;
    while passes == 0 || spent < budget {
        let t = Instant::now();
        out.clear();
        w.reset();
        w.pass(&mut plain_ns, &mut out);
        out.clear();
        w.reset();
        w.traced_pass(&mut traced_ns, &mut out, &mut layers);
        spent += t.elapsed();
        passes += 1;
        mismatches += out.len().abs_diff(reference.len()) as u64;
        mismatches += out
            .iter()
            .zip(reference)
            .filter(|(a, b)| !a.same_bits(b))
            .count() as u64;
    }
    outcome.attempted = layers.ops;
    outcome.failed = mismatches;
    if mismatches > 0 {
        outcome.problems.push(format!(
            "{mismatches} traced ops differ bitwise from the untraced reference"
        ));
    }
    let plain_p50 = percentile(&us(&plain_ns), 0.5);
    let traced_p50 = percentile(&us(&traced_ns), 0.5);
    let unattributed = layers.unattributed_ns();
    if unattributed < 0 {
        outcome.problems.push(format!(
            "layer self times exceed the traced op time by {} ns: spans overlap",
            -unattributed
        ));
    } else if unattributed as f64 > UNATTRIBUTED_TOLERANCE * layers.op_ns as f64 {
        outcome.problems.push(format!(
            "layers leave {:.1}% of traced op time unattributed (tolerance {:.0}%)",
            100.0 * unattributed as f64 / layers.op_ns as f64,
            100.0 * UNATTRIBUTED_TOLERANCE
        ));
    }
    outcome.notes.push(format!(
        "traced: {passes} pass pairs, {} traced ops; untraced p50 {plain_p50:.2} us, traced p50 {traced_p50:.2} us",
        layers.ops
    ));
    outcome.metrics = layers.metrics(plain_p50, traced_p50);
}

fn check_floors(acc: &Accuracy, f: &Floors, what: &str, problems: &mut Vec<String>) {
    let loc = percentile(&sorted(acc.loc_cm.clone()), 0.5);
    let orient = percentile(&sorted(acc.orient_deg.clone()), 0.5);
    let start = problems.len();
    if acc.estimates == 0 {
        problems.push("no op returned an estimate".into());
    }
    // NaN fails every floor.
    let above = |v: f64, max: f64| v.is_nan() || v > max;
    let below = |v: f64, min: f64| v.is_nan() || v < min;
    if above(loc, f.loc_p50_cm_max) {
        problems.push(format!(
            "loc_err_p50_cm {loc:.2} above floor {:.2}",
            f.loc_p50_cm_max
        ));
    }
    if above(orient, f.orient_p50_deg_max) {
        let max = f.orient_p50_deg_max;
        problems.push(format!(
            "orient_err_p50_deg {orient:.2} above floor {max:.2}"
        ));
    }
    if below(acc.material_acc(), f.material_acc_min) || acc.classified == 0 {
        problems.push(format!(
            "material_acc {:.3} below floor {:.3} ({} classified)",
            acc.material_acc(),
            f.material_acc_min,
            acc.classified
        ));
    }
    if below(acc.estimate_rate(), f.estimate_rate_min) {
        let (rate, min) = (acc.estimate_rate(), f.estimate_rate_min);
        problems.push(format!("estimate_rate {rate:.4} below floor {min:.4}"));
    }
    for p in &mut problems[start..] {
        *p = format!("{what}: {p}");
    }
}
