//! Raw-read pre-processing: π-jump correction, per-channel aggregation and
//! cross-channel unwrapping.
//!
//! A COTS reader reports, for every successful inventory of a tag, the
//! channel it was read on, a phase in `[0, 2π)` and an RSSI. Three artifacts
//! must be repaired before the readings can be fitted to a line
//! (the paper's *signal pre-processing module*):
//!
//! 1. **π jumps** — ImpinJ-class readers resolve the backscatter phase only
//!    up to π; a random half of the reads come back shifted by exactly π.
//!    Within one channel the true phase is constant, so the reads form two
//!    antipodal clusters. We recover the channel phase with the
//!    double-angle trick (doubling maps both clusters onto one), then pick
//!    the cluster that holds the **majority** of reads to resolve which of
//!    `θ` / `θ+π` is the true value. This keeps the *absolute* phase
//!    correct, which matters because the line intercept carries the
//!    orientation information.
//! 2. **Per-channel noise** — multiple reads per 200 ms dwell are averaged
//!    (circularly) to beat down thermal phase noise.
//! 3. **2π folding** — across channels the phase walks many turns; standard
//!    unwrapping restores a continuous line (channel spacing is 500 kHz, so
//!    the true inter-channel increment is ≪ π for any realistic geometry).
//!
//! All per-read trigonometry goes through a pluggable backend
//! ([`TrigProvider`], selected per call via [`PreprocessConfig::trig`]):
//! quantized phase-**code tables** when the reads carry their 12-bit
//! reader codes (bit-identical to libm by construction), a bounded-error
//! **polynomial** for continuous synthetic phases, or plain **libm**.
//! Table lookups are fused into the per-read passes; the other backends
//! fill flat per-read lane columns first (the polynomial 4-wide unrolled,
//! so it autovectorizes). Either way every per-channel sum keeps the
//! reference summation order — and hence its bits.

use crate::trig::{self, hit, TrigProvider};
use crate::workspace::FrontEndWorkspace;
use rfp_geom::angle;

/// One raw read report from the reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRead {
    /// Channel index into the session's frequency plan.
    pub channel: usize,
    /// Centre frequency of that channel, Hz.
    pub frequency_hz: f64,
    /// Reported phase, wrapped into `[0, 2π)` (may contain a π jump).
    pub phase: f64,
    /// Reported RSSI, dBm.
    pub rssi_dbm: f64,
    /// Read timestamp, seconds since the start of the hop sequence.
    pub timestamp_s: f64,
    /// The reader's 12-bit phase code when `phase` sits exactly on the
    /// LLRP quantization grid (`phase == code · 2π/4096` bitwise), `None`
    /// for continuous/synthetic phases. Attach via
    /// [`crate::trig::code_for_phase`]; codes ≥ 4096
    /// are treated modulo 4096 by the table backend. Carrying the code
    /// lets [`TrigProvider::Table`] replace every per-read libm call with
    /// an exact table lookup.
    pub phase_code: Option<u16>,
}

/// Aggregated, corrected observation for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelObservation {
    /// Channel index.
    pub channel: usize,
    /// Centre frequency, Hz.
    pub frequency_hz: f64,
    /// Unwrapped phase (continuous across channels), radians.
    pub phase: f64,
    /// Mean RSSI over the channel's reads, dBm.
    pub rssi_dbm: f64,
    /// Number of raw reads aggregated.
    pub read_count: usize,
    /// Circular spread of the (π-corrected) reads, radians — a per-channel
    /// quality indicator.
    pub phase_spread: f64,
}

/// Configuration for [`preprocess_reads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Whether to run π-jump correction (on for COTS-reader data).
    pub correct_pi_jumps: bool,
    /// Channels with fewer reads than this are dropped.
    pub min_reads_per_channel: usize,
    /// Trigonometry backend for the per-read phasor computations. The
    /// default, [`TrigProvider::Table`], is bit-identical to
    /// [`TrigProvider::Libm`] on every input (table hits for reads with
    /// phase codes, libm otherwise) and fastest on quantized reader data.
    pub trig: TrigProvider,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            correct_pi_jumps: true,
            min_reads_per_channel: 1,
            trig: TrigProvider::default(),
        }
    }
}

/// Errors from [`preprocess_reads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessError {
    /// No channel had enough reads.
    NoUsableChannels,
    /// A kept channel's reads carry a NaN/±∞ phase or RSSI, or its first
    /// read a non-finite frequency.
    NonFiniteInput {
        /// The offending channel.
        channel: usize,
    },
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreprocessError::NoUsableChannels => {
                write!(f, "no channel had enough reads to aggregate")
            }
            PreprocessError::NonFiniteInput { channel } => {
                write!(f, "channel {channel} has a non-finite phase, RSSI or frequency")
            }
        }
    }
}

impl std::error::Error for PreprocessError {}

/// Runs the full pre-processing pipeline on one antenna's raw reads and
/// returns per-channel observations sorted by frequency, with phases
/// unwrapped across channels.
///
/// # Errors
///
/// Returns [`PreprocessError::NoUsableChannels`] when every channel has
/// fewer than `config.min_reads_per_channel` reads, and
/// [`PreprocessError::NonFiniteInput`] when a kept channel carries a
/// non-finite phase, RSSI or frequency.
///
/// # Example
///
/// ```
/// use rfp_dsp::preprocess::{preprocess_reads, PreprocessConfig, RawRead};
///
/// let reads = vec![
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.0, rssi_dbm: -50.0, timestamp_s: 0.0, phase_code: None },
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.0 + std::f64::consts::PI, rssi_dbm: -50.0, timestamp_s: 0.01, phase_code: None },
///     RawRead { channel: 0, frequency_hz: 902.75e6, phase: 1.02, rssi_dbm: -50.0, timestamp_s: 0.02, phase_code: None },
///     RawRead { channel: 1, frequency_hz: 903.25e6, phase: 1.06, rssi_dbm: -50.0, timestamp_s: 0.2, phase_code: None },
/// ];
/// let obs = preprocess_reads(&reads, &PreprocessConfig::default())?;
/// assert_eq!(obs.len(), 2);
/// // The π-jumped read was folded back onto the majority cluster:
/// assert!((obs[0].phase - 1.0).abs() < 0.05);
/// # Ok::<(), rfp_dsp::preprocess::PreprocessError>(())
/// ```
pub fn preprocess_reads(
    reads: &[RawRead],
    config: &PreprocessConfig,
) -> Result<Vec<ChannelObservation>, PreprocessError> {
    let mut ws = FrontEndWorkspace::default();
    let mut out = Vec::new();
    preprocess_reads_with(&mut ws, reads, config, &mut out)?;
    Ok(out)
}

/// [`preprocess_reads`] against caller-owned scratch: per-channel
/// aggregation runs over the workspace's flat SoA accumulator columns
/// (two passes over the raw reads — no per-channel `Vec`s, no map), the
/// unwrap operates in the workspace's phase column, and writing the final
/// observations simultaneously feeds the fused unwrap+OLS accumulator
/// ([`FrontEndWorkspace::raw_fit`]) and the fit columns
/// ([`FrontEndWorkspace::fit_columns`]). `out` is cleared and refilled;
/// in steady state (buffer capacities reached) the call performs **zero**
/// heap allocations.
///
/// Produces bit-identical observations to the frozen
/// [`crate::reference::preprocess_reads`]: every per-channel sum is
/// accumulated in that channel's read order, and the order-statistic
/// medians and unstable index sorts reproduce the original stable
/// orderings exactly.
///
/// The pass order is:
///
/// 1. **Run-wise accumulation.** Reads arrive in channel dwells, so the
///    pass walks *runs* of consecutive same-channel reads, keeps the run's
///    count, RSSI sum and phasor sums in registers and writes them back to
///    the channel's slot once per run. A revisited channel resumes from
///    its stored slot values, so the adds happen in exactly the per-read
///    order. The runs are recorded for pass 2.
/// 2. Per-channel axis, the finiteness check, the frequency sort and (in
///    π-jump mode) the period-π unwrap of the axes — all O(channels).
/// 3. **One fused fold + vote pass** (π-jump mode): each read is folded
///    onto its channel axis for the spread resultant *and* votes on the
///    global π ambiguity against the unwrapped axis. Both decisions are
///    branch-free selects, and the table backend picks the base or
///    π-shifted half of one interleaved table entry by index.
///
/// Non-table backends fill per-read phasor lanes first (4-wide unrolled
/// polynomial, libm, or the sequential recurrence) and feed the same two
/// passes, so every backend shares one pass order.
///
/// # Errors
///
/// As [`preprocess_reads`], plus [`PreprocessError::NonFiniteInput`] when
/// a kept channel's phase resultant, RSSI sum or frequency is not finite
/// (a NaN or infinite phase or RSSI, or a non-finite frequency on its
/// first read).
pub fn preprocess_reads_with(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    config: &PreprocessConfig,
    out: &mut Vec<ChannelObservation>,
) -> Result<(), PreprocessError> {
    use std::f64::consts::PI;

    ws.reset_channels();
    out.clear();
    let min_reads = config.min_reads_per_channel.max(1);
    let pi_jumps = config.correct_pi_jumps;
    // `1.0 · p` is exactly `p`, so one scaled expression serves both
    // modes without perturbing libm bit-identity.
    let scale = if pi_jumps { 2.0 } else { 1.0 };

    // Pass 1: per-channel counts, first read, RSSI, and the circular sums
    // of the per-read phasors — of the doubled angle in π-jump mode (the
    // double-angle trick maps both antipodal clusters onto one), of the
    // plain phase otherwise. The table path counts its libm fallbacks in
    // a local (kept in a register) and derives its table hits from it.
    let mut hits = [0u64; 4];
    if config.trig == TrigProvider::Table {
        let t = trig::tables();
        let mut fallbacks = 0u64;
        accumulate_runs(ws, reads, |_, r| match r.phase_code {
            Some(code) if pi_jumps => t.double(code),
            Some(code) => t.fold(code, false),
            None => {
                fallbacks += 1;
                let x = scale * r.phase;
                (x.sin(), x.cos())
            }
        });
        hits[hit::TABLE] += reads.len() as u64 - fallbacks;
        hits[hit::LIBM] += fallbacks;
    } else {
        let (mut lane_sin, mut lane_cos) =
            (std::mem::take(&mut ws.read_sin), std::mem::take(&mut ws.read_cos));
        fill_phasors(config.trig, reads, scale, &mut lane_sin, &mut lane_cos, &mut hits);
        accumulate_runs(ws, reads, |i, _| (lane_sin[i], lane_cos[i]));
        (ws.read_sin, ws.read_cos) = (lane_sin, lane_cos);
    }

    // Per-slot axis (and, without π correction, the spread too — it comes
    // from the same resultant vector as the mean).
    let mut kept = 0usize;
    for s in 0..ws.slots() {
        let n = ws.count[s];
        ws.keep[s] = n >= min_reads;
        if !ws.keep[s] {
            continue;
        }
        kept += 1;
        let (sin, cos) = (ws.acc_sin[s], ws.acc_cos[s]);
        let r = (sin * sin + cos * cos).sqrt() / n as f64;
        if pi_jumps {
            // circular_mean(2p).unwrap_or(2·p₀) / 2, streamed.
            let doubled_mean = if r < 1e-12 { 2.0 * ws.first_phase[s] } else { sin.atan2(cos) };
            ws.axis[s] = doubled_mean / 2.0;
        } else {
            ws.axis[s] = if r < 1e-12 { ws.first_phase[s] } else { sin.atan2(cos) };
            ws.spread[s] = (-2.0 * r.clamp(1e-300, 1.0).ln()).sqrt();
        }
        // A NaN/±∞ phase poisons the channel's resultant (libm returns NaN
        // for infinite arguments), and a NaN/±∞ RSSI its RSSI sum, so one
        // check per channel catches every non-finite phase or RSSI that can
        // reach the output; the frequency check guards the sort and the
        // line fit.
        if !(ws.axis[s].is_finite() && ws.sum_rssi[s].is_finite() && ws.first_freq[s].is_finite())
        {
            ws.trig_hits = hits;
            return Err(PreprocessError::NonFiniteInput { channel: ws.chan[s] });
        }
    }
    if kept == 0 {
        ws.trig_hits = hits;
        return Err(PreprocessError::NoUsableChannels);
    }

    // Sort the kept slots ascending in frequency. The reference
    // implementation stable-sorts channels that arrive in ascending
    // channel-id order (BTreeMap iteration), so (frequency, channel) as an
    // unstable total order reproduces its ordering exactly.
    ws.order.clear();
    ws.order.extend((0..ws.slots()).filter(|&s| ws.keep[s]));
    {
        let first_freq = &ws.first_freq;
        let chan = &ws.chan;
        ws.order.sort_unstable_by(|&a, &b| {
            first_freq[a]
                .partial_cmp(&first_freq[b])
                .expect("kept frequencies are checked finite above")
                .then_with(|| chan[a].cmp(&chan[b]))
        });
    }

    // Wrapped per-channel phases in sorted order, then cross-channel
    // unwrap in place.
    ws.phase_col.clear();
    for &s in &ws.order {
        ws.phase_col.push(angle::wrap_tau(ws.axis[s]));
    }
    if pi_jumps {
        // The per-channel axes are only known modulo π: unwrap them with
        // period π into a continuous curve, then resolve the single global
        // π ambiguity by a majority vote over *every* raw read (far more
        // robust than voting channel by channel). The vote shares the
        // per-read pass with the fold: the fold depends only on the axis,
        // the vote only on the unwrapped axis, and both are known now.
        angle::unwrap_in_place_period(&mut ws.phase_col, PI);
        for (k, &s) in ws.order.iter().enumerate() {
            ws.unwrapped[s] = ws.phase_col[k];
        }
        let (votes_axis, votes_total) = if config.trig == TrigProvider::Table {
            let t = trig::tables();
            let mut fallbacks = 0u64;
            let votes = fold_and_vote(ws, reads, |_, r, shift| match r.phase_code {
                Some(code) => t.fold(code, shift),
                None => {
                    fallbacks += 1;
                    let p = r.phase;
                    let folded = if shift { p + PI } else { p };
                    (folded.sin(), folded.cos())
                }
            });
            // Every read of a kept channel votes and is folded once.
            hits[hit::TABLE] += votes.1 as u64 - fallbacks;
            hits[hit::LIBM] += fallbacks;
            votes
        } else {
            let (mut lane_sin, mut lane_cos) =
                (std::mem::take(&mut ws.read_sin), std::mem::take(&mut ws.read_cos));
            fill_fold_phasors(config.trig, ws, reads, &mut lane_sin, &mut lane_cos, &mut hits);
            let votes = fold_and_vote(ws, reads, |i, _, _| (lane_sin[i], lane_cos[i]));
            (ws.read_sin, ws.read_cos) = (lane_sin, lane_cos);
            votes
        };
        for s in 0..ws.slots() {
            if !ws.keep[s] {
                continue;
            }
            let (sin, cos) = (ws.fold_sin[s], ws.fold_cos[s]);
            let r = ((sin * sin + cos * cos).sqrt() / ws.count[s] as f64).min(1.0);
            ws.spread[s] = (-2.0 * r.max(1e-300).ln()).sqrt();
        }
        if 2 * votes_axis < votes_total {
            for p in &mut ws.phase_col {
                *p += PI;
            }
        }
    } else {
        angle::unwrap_in_place(&mut ws.phase_col);
    }
    ws.trig_hits = hits;

    // Emit the final observations; the same loop feeds the fused
    // unwrap+OLS accumulator and the (freq, phase) fit columns, so the
    // raw line fit afterwards needs no further pass over the window.
    for k in 0..ws.order.len() {
        let s = ws.order[k];
        let freq = ws.first_freq[s];
        let phase = ws.phase_col[k];
        out.push(ChannelObservation {
            channel: ws.chan[s],
            frequency_hz: freq,
            phase,
            rssi_dbm: ws.sum_rssi[s] / ws.count[s] as f64,
            read_count: ws.count[s],
            phase_spread: ws.spread[s],
        });
        ws.emit(freq, phase);
    }
    Ok(())
}

/// Pass 1 over runs of consecutive same-channel reads: the run's read
/// count, RSSI sum and phasor sums (`phasor(i, read)` for read `i`) live
/// in registers and are written back to the channel's slot once per run,
/// and the run is recorded for the fold pass. A revisited channel
/// resumes from its stored slot values, so every per-slot sum sees the
/// same adds in the same order as a per-read scatter — bit-identical.
#[inline(always)]
fn accumulate_runs(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    mut phasor: impl FnMut(usize, &RawRead) -> (f64, f64),
) {
    let n = reads.len();
    let mut i = 0;
    while i < n {
        let first = &reads[i];
        let s = ws.slot(first.channel);
        if ws.count[s] == 0 {
            ws.first_freq[s] = first.frequency_hz;
            ws.first_phase[s] = first.phase;
        }
        let (mut rssi, mut acc_sin, mut acc_cos) = (ws.sum_rssi[s], ws.acc_sin[s], ws.acc_cos[s]);
        let start = i;
        while i < n && reads[i].channel == first.channel {
            let r = &reads[i];
            rssi += r.rssi_dbm;
            let (sin, cos) = phasor(i, r);
            acc_sin += sin;
            acc_cos += cos;
            i += 1;
        }
        ws.count[s] += i - start;
        ws.sum_rssi[s] = rssi;
        ws.acc_sin[s] = acc_sin;
        ws.acc_cos[s] = acc_cos;
        ws.runs.push((i as u32, s as u32));
    }
}

/// Reads per decision block of the fold + vote pass: a block's
/// decisions are computed first in one vectorized loop, then its phasors
/// are accumulated in read order (a chain of dependent adds the decision
/// work would otherwise stall behind).
const DECISION_BLOCK: usize = 64;

/// The fused fold + vote pass of the π-jump mode, over the runs recorded
/// by [`accumulate_runs`] (runs of dropped channels are skipped whole).
/// Each read's fold decision (`> π/2` from its channel axis) selects the
/// phasor `phasor(i, read, shift)` accumulated into the channel's folded
/// resultant, run-wise in registers as in pass 1; its vote decision
/// (`≤ π/2` from the unwrapped axis) is counted. Returns
/// `(votes for the axis, reads voting)`.
#[inline(always)]
fn fold_and_vote(
    ws: &mut FrontEndWorkspace,
    reads: &[RawRead],
    mut phasor: impl FnMut(usize, &RawRead, bool) -> (f64, f64),
) -> (usize, usize) {
    let FrontEndWorkspace { runs, keep, axis, unwrapped, fold_sin, fold_cos, .. } = &mut *ws;
    let (mut votes_axis, mut votes_total) = (0usize, 0usize);
    let mut start = 0usize;
    for &(end, s) in runs.iter() {
        let (end, s) = (end as usize, s as usize);
        if keep[s] {
            let (a, u) = (axis[s], unwrapped[s]);
            let (mut fs, mut fc) = (fold_sin[s], fold_cos[s]);
            let (mut shift, mut vote) = ([false; DECISION_BLOCK], [false; DECISION_BLOCK]);
            let mut block_start = start;
            while block_start < end {
                let block = &reads[block_start..end.min(block_start + DECISION_BLOCK)];
                block_decisions(block, a, u, &mut shift, &mut vote);
                for (l, r) in block.iter().enumerate() {
                    let (sin, cos) = phasor(block_start + l, r, shift[l]);
                    fs += sin;
                    fc += cos;
                    votes_axis += vote[l] as usize;
                }
                block_start += block.len();
            }
            fold_sin[s] = fs;
            fold_cos[s] = fc;
            votes_total += end - start;
        }
        start = end;
    }
    (votes_axis, votes_total)
}

/// The two per-read decisions of the fold + vote pass for a block of at
/// most [`DECISION_BLOCK`] reads of one channel:
/// `angle::distance(p, axis) > π/2` (fold onto the opposite cluster) and
/// `angle::distance(p, unwrapped) ≤ π/2` (vote for the axis).
///
/// The loop evaluates [`angle::distance_in_range`], the branch-free form
/// of `angle::distance`, as straight-line selects with no data-dependent
/// branch (π jumps make each decision a coin flip, so a branch would
/// mispredict half the time), so the compiler vectorizes it. A block
/// holding a difference outside its range (NaN, ±∞, huge) is re-decided
/// through `angle::distance` itself. Entries past the block's end are
/// unset.
#[inline(always)]
fn block_decisions(
    block: &[RawRead],
    axis: f64,
    unwrapped: f64,
    shift: &mut [bool; DECISION_BLOCK],
    vote: &mut [bool; DECISION_BLOCK],
) {
    use std::f64::consts::FRAC_PI_2;
    let limit = angle::EXACT_REDUCE_LIMIT;
    let mut in_range = true;
    for ((r, s), v) in block.iter().zip(shift.iter_mut()).zip(vote.iter_mut()) {
        in_range &= ((r.phase - axis).abs() < limit) & ((r.phase - unwrapped).abs() < limit);
        *s = angle::distance_in_range(r.phase, axis) > FRAC_PI_2;
        *v = angle::distance_in_range(r.phase, unwrapped) <= FRAC_PI_2;
    }
    if !in_range {
        for ((r, s), v) in block.iter().zip(shift.iter_mut()).zip(vote.iter_mut()) {
            *s = angle::distance(r.phase, axis) > FRAC_PI_2;
            *v = angle::distance(r.phase, unwrapped) <= FRAC_PI_2;
        }
    }
}

/// Fills the per-read phasor lanes: `(sin_out[i], cos_out[i])` becomes
/// `sin/cos` of `scale · reads[i].phase` (`scale` is 2 for the doubled
/// angle, 1 for the plain phase — `1.0 · p` is exactly `p`), computed by
/// the selected backend. `hits` tallies per-backend evaluations.
/// [`TrigProvider::Table`] never reaches here — its lookups are fused
/// directly into the accumulation pass (a table hit is two loads; staging
/// it through the lanes would cost more memory traffic than it saves).
fn fill_phasors(
    trig: TrigProvider,
    reads: &[RawRead],
    scale: f64,
    sin_out: &mut Vec<f64>,
    cos_out: &mut Vec<f64>,
    hits: &mut [u64; 4],
) {
    let n = reads.len();
    sin_out.clear();
    sin_out.resize(n, 0.0);
    cos_out.clear();
    cos_out.resize(n, 0.0);
    match trig {
        TrigProvider::Table => unreachable!("table lookups are fused into the caller"),
        TrigProvider::Polynomial => {
            hits[hit::POLY] += n as u64;
            let mut rs = reads.chunks_exact(4);
            let mut ss = sin_out.chunks_exact_mut(4);
            let mut cs = cos_out.chunks_exact_mut(4);
            for ((r, s), c) in (&mut rs).zip(&mut ss).zip(&mut cs) {
                let (s0, c0) = trig::poly_sin_cos(scale * r[0].phase);
                let (s1, c1) = trig::poly_sin_cos(scale * r[1].phase);
                let (s2, c2) = trig::poly_sin_cos(scale * r[2].phase);
                let (s3, c3) = trig::poly_sin_cos(scale * r[3].phase);
                s[0] = s0;
                s[1] = s1;
                s[2] = s2;
                s[3] = s3;
                c[0] = c0;
                c[1] = c1;
                c[2] = c2;
                c[3] = c3;
            }
            let rem = rs.remainder();
            for ((r, s), c) in rem.iter().zip(ss.into_remainder()).zip(cs.into_remainder()) {
                let (ps, pc) = trig::poly_sin_cos(scale * r.phase);
                *s = ps;
                *c = pc;
            }
        }
        TrigProvider::Libm => {
            hits[hit::LIBM] += n as u64;
            for ((r, s), c) in reads.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let x = scale * r.phase;
                *s = x.sin();
                *c = x.cos();
            }
        }
        TrigProvider::Recurrence => {
            // Sequential by construction: each phasor rotates from the
            // previous read's angle (reads inside one dwell are near-
            // constant in phase, so most advances are one complex
            // rotation; dwell hops re-anchor through the polynomial).
            hits[hit::RECURRENCE] += n as u64;
            let mut rec = trig::PhasorRecurrence::new();
            for ((r, s), c) in reads.iter().zip(sin_out.iter_mut()).zip(cos_out.iter_mut()) {
                let (rs, rc) = rec.advance(scale * r.phase);
                *s = rs;
                *c = rc;
            }
        }
    }
}

/// Fills the fold-pass phasor lanes: for each read of a kept channel,
/// `(sin_out[i], cos_out[i])` becomes `sin/cos` of the phase folded onto
/// its channel axis (`p` when within π/2 of the axis, `p + π`
/// otherwise), walking the runs recorded in pass 1. Lanes of dropped
/// channels are left unset (the fold pass skips their runs).
/// [`TrigProvider::Table`] never reaches here (fused into the fold pass,
/// as in pass 1).
fn fill_fold_phasors(
    trig: TrigProvider,
    ws: &FrontEndWorkspace,
    reads: &[RawRead],
    sin_out: &mut Vec<f64>,
    cos_out: &mut Vec<f64>,
    hits: &mut [u64; 4],
) {
    use std::f64::consts::{FRAC_PI_2, PI};

    let n = reads.len();
    sin_out.clear();
    sin_out.resize(n, 0.0);
    cos_out.clear();
    cos_out.resize(n, 0.0);
    // Every read's slot, run by run, for the per-read fold decision.
    let slots = ws.runs.iter().scan(0usize, |start, &(end, s)| {
        let run = *start..end as usize;
        *start = end as usize;
        Some((run, s as usize))
    });
    match trig {
        TrigProvider::Table => unreachable!("table lookups are fused into the caller"),
        TrigProvider::Recurrence => {
            // The recurrence tracks the *base* phase trajectory over every
            // read (dropped channels included) and resolves a fold by
            // negation — `sin/cos(p + π) = −sin/cos p` exactly — so a
            // π-jumped read costs a sign flip instead of breaking the
            // rotation chain with a π-sized re-anchor.
            hits[hit::RECURRENCE] += n as u64;
            let mut rec = trig::PhasorRecurrence::new();
            for (run, s) in slots {
                for i in run {
                    let p = reads[i].phase;
                    let (bs, bc) = rec.advance(p);
                    if !ws.keep[s] {
                        continue;
                    }
                    if angle::distance(p, ws.axis[s]) <= FRAC_PI_2 {
                        sin_out[i] = bs;
                        cos_out[i] = bc;
                    } else {
                        sin_out[i] = -bs;
                        cos_out[i] = -bc;
                    }
                }
            }
        }
        TrigProvider::Polynomial | TrigProvider::Libm => {
            // Stage the folded angles in the cos lane, then transform it.
            for (run, s) in slots {
                if !ws.keep[s] {
                    continue;
                }
                for i in run {
                    let p = reads[i].phase;
                    cos_out[i] =
                        if angle::distance(p, ws.axis[s]) <= FRAC_PI_2 { p } else { p + PI };
                }
            }
            if trig == TrigProvider::Polynomial {
                hits[hit::POLY] += n as u64;
                let mut i = 0;
                while i + 4 <= n {
                    let (s0, c0) = trig::poly_sin_cos(cos_out[i]);
                    let (s1, c1) = trig::poly_sin_cos(cos_out[i + 1]);
                    let (s2, c2) = trig::poly_sin_cos(cos_out[i + 2]);
                    let (s3, c3) = trig::poly_sin_cos(cos_out[i + 3]);
                    sin_out[i] = s0;
                    sin_out[i + 1] = s1;
                    sin_out[i + 2] = s2;
                    sin_out[i + 3] = s3;
                    cos_out[i] = c0;
                    cos_out[i + 1] = c1;
                    cos_out[i + 2] = c2;
                    cos_out[i + 3] = c3;
                    i += 4;
                }
                while i < n {
                    let (ps, pc) = trig::poly_sin_cos(cos_out[i]);
                    sin_out[i] = ps;
                    cos_out[i] = pc;
                    i += 1;
                }
            } else {
                hits[hit::LIBM] += n as u64;
                for i in 0..n {
                    let x = cos_out[i];
                    sin_out[i] = x.sin();
                    cos_out[i] = x.cos();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn read(channel: usize, phase: f64) -> RawRead {
        RawRead {
            channel,
            frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
            phase: angle::wrap_tau(phase),
            rssi_dbm: -55.0,
            timestamp_s: channel as f64 * 0.2,
            phase_code: None,
        }
    }

    /// A read whose phase is snapped to the reader grid, carrying its code.
    fn quantized_read(channel: usize, phase: f64) -> RawRead {
        let lsb = crate::trig::PHASE_LSB_RAD;
        let snapped = angle::wrap_tau((angle::wrap_tau(phase) / lsb).round() * lsb);
        RawRead {
            phase: snapped,
            phase_code: crate::trig::code_for_phase(snapped),
            ..read(channel, 0.0)
        }
    }

    #[test]
    fn aggregates_per_channel() {
        let reads = vec![read(0, 1.0), read(0, 1.1), read(1, 1.2), read(1, 1.3)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].read_count, 2);
        assert!((obs[0].phase - 1.05).abs() < 1e-9);
        assert_eq!(obs[0].channel, 0);
        assert!((obs[0].rssi_dbm + 55.0).abs() < 1e-12);
    }

    #[test]
    fn pi_jump_minority_is_folded_back() {
        // 5 reads, 2 jumped by π: the majority cluster must win.
        let reads = vec![
            read(0, 0.5),
            read(0, 0.52),
            read(0, 0.5 + PI),
            read(0, 0.48),
            read(0, 0.51 + PI),
        ];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert!((obs[0].phase - 0.5).abs() < 0.05, "phase={}", obs[0].phase);
        assert!(obs[0].phase_spread < 0.1);
    }

    #[test]
    fn pi_jump_near_wrap_boundary() {
        // True phase near 0; jumped reads near π. Wrapping must not confuse
        // the vote.
        let reads = vec![read(0, 0.02), read(0, -0.03), read(0, 0.01 + PI)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        assert!(
            angle::distance(obs[0].phase, 0.0) < 0.05,
            "phase={}",
            obs[0].phase
        );
    }

    #[test]
    fn unwraps_across_channels() {
        // Steep line: 1.1 rad per channel, wraps several times over 20 channels.
        let true_line = |c: usize| 0.3 + 1.1 * c as f64;
        let reads: Vec<RawRead> = (0..20).map(|c| read(c, true_line(c))).collect();
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        for w in obs.windows(2) {
            assert!(
                ((w[1].phase - w[0].phase) - 1.1).abs() < 1e-6,
                "increment {}",
                w[1].phase - w[0].phase
            );
        }
    }

    #[test]
    fn min_reads_filter_drops_thin_channels() {
        let reads = vec![read(0, 1.0), read(0, 1.0), read(1, 2.0)];
        let cfg = PreprocessConfig { min_reads_per_channel: 2, ..Default::default() };
        let obs = preprocess_reads(&reads, &cfg).unwrap();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].channel, 0);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            preprocess_reads(&[], &PreprocessConfig::default()).unwrap_err(),
            PreprocessError::NoUsableChannels
        );
    }

    #[test]
    fn correction_can_be_disabled() {
        let reads = vec![read(0, 0.5), read(0, 0.5 + PI)];
        let cfg = PreprocessConfig { correct_pi_jumps: false, ..Default::default() };
        // With correction off the two antipodal reads average to something
        // near the midpoint (circular mean undefined-ish); just check we get
        // an observation and do not crash.
        let obs = preprocess_reads(&reads, &cfg).unwrap();
        assert_eq!(obs[0].read_count, 2);
    }

    #[test]
    fn channels_sorted_by_frequency() {
        let reads = vec![read(5, 1.0), read(1, 0.5), read(3, 0.7)];
        let obs = preprocess_reads(&reads, &PreprocessConfig::default()).unwrap();
        let freqs: Vec<f64> = obs.iter().map(|o| o.frequency_hz).collect();
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
    }

    /// Window mixing quantized (coded) and continuous reads across both
    /// π-jump modes: the table backend must be bit-identical to libm.
    #[test]
    fn table_backend_is_bit_identical_to_libm() {
        let mut reads = Vec::new();
        for c in 0..12usize {
            for k in 0..5usize {
                let p = 0.3 + 1.7 * c as f64 + 0.21 * k as f64
                    + if k % 2 == 1 { PI } else { 0.0 };
                reads.push(quantized_read(c, p));
                reads.push(read(c, p + 0.005));
            }
        }
        for &pi_jumps in &[true, false] {
            let libm_cfg = PreprocessConfig {
                correct_pi_jumps: pi_jumps,
                trig: crate::trig::TrigProvider::Libm,
                ..Default::default()
            };
            let table_cfg = PreprocessConfig {
                trig: crate::trig::TrigProvider::Table,
                ..libm_cfg
            };
            let libm_obs = preprocess_reads(&reads, &libm_cfg).unwrap();
            let table_obs = preprocess_reads(&reads, &table_cfg).unwrap();
            assert_eq!(libm_obs, table_obs, "pi_jumps={pi_jumps}");
        }
    }

    /// The workspace tallies which backend served each per-read phasor.
    #[test]
    fn trig_hit_counters_split_table_and_libm_fallback() {
        // 3 coded + 2 continuous reads on one channel, π-jump mode: two
        // phasor passes (double-angle + fold) over every read.
        let reads = vec![
            quantized_read(0, 0.4),
            quantized_read(0, 0.41),
            quantized_read(0, 0.4 + PI),
            read(0, 0.42),
            read(0, 0.43),
        ];
        let mut ws = FrontEndWorkspace::default();
        let mut out = Vec::new();
        preprocess_reads_with(&mut ws, &reads, &PreprocessConfig::default(), &mut out)
            .unwrap();
        assert_eq!(ws.trig_hits(), [6, 0, 4, 0]);

        let poly_cfg = PreprocessConfig {
            trig: crate::trig::TrigProvider::Polynomial,
            ..Default::default()
        };
        preprocess_reads_with(&mut ws, &reads, &poly_cfg, &mut out).unwrap();
        assert_eq!(ws.trig_hits(), [0, 10, 0, 0]);

        let rec_cfg = PreprocessConfig {
            trig: crate::trig::TrigProvider::Recurrence,
            ..Default::default()
        };
        preprocess_reads_with(&mut ws, &reads, &rec_cfg, &mut out).unwrap();
        assert_eq!(ws.trig_hits(), [0, 0, 0, 10]);
    }

    /// Polynomial backend stays within its documented error bound end to
    /// end (continuous phases, steep line, π jumps).
    #[test]
    fn polynomial_backend_tracks_libm_closely() {
        let reads: Vec<RawRead> = (0..20)
            .flat_map(|c| {
                (0..4).map(move |k| {
                    read(c, 0.3 + 1.1 * c as f64 + if k % 2 == 0 { 0.0 } else { PI })
                })
            })
            .collect();
        let libm_obs = preprocess_reads(
            &reads,
            &PreprocessConfig { trig: crate::trig::TrigProvider::Libm, ..Default::default() },
        )
        .unwrap();
        let poly_obs = preprocess_reads(
            &reads,
            &PreprocessConfig {
                trig: crate::trig::TrigProvider::Polynomial,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(libm_obs.len(), poly_obs.len());
        for (l, p) in libm_obs.iter().zip(&poly_obs) {
            assert_eq!(l.channel, p.channel);
            assert!((l.phase - p.phase).abs() < 1e-9, "{} vs {}", l.phase, p.phase);
            // spread = √(−2 ln r) has unbounded derivative at r → 1, so a
            // ~1e-14 phasor error can move a near-zero spread by ~1e-7.
            assert!((l.phase_spread - p.phase_spread).abs() < 1e-6);
        }
    }

    /// The stateful phasor-recurrence backend stays within its documented
    /// error bound end to end on a dwell-like stream (near-constant phase
    /// within a channel, hops between channels, random π jumps).
    #[test]
    fn recurrence_backend_tracks_libm_closely() {
        let reads: Vec<RawRead> = (0..20)
            .flat_map(|c| {
                (0..8).map(move |k| {
                    read(
                        c,
                        0.3 + 1.1 * c as f64
                            + 0.004 * k as f64
                            + if (c * 7 + k) % 3 == 0 { PI } else { 0.0 },
                    )
                })
            })
            .collect();
        let libm_obs = preprocess_reads(
            &reads,
            &PreprocessConfig { trig: crate::trig::TrigProvider::Libm, ..Default::default() },
        )
        .unwrap();
        let rec_obs = preprocess_reads(
            &reads,
            &PreprocessConfig {
                trig: crate::trig::TrigProvider::Recurrence,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(libm_obs.len(), rec_obs.len());
        for (l, r) in libm_obs.iter().zip(&rec_obs) {
            assert_eq!(l.channel, r.channel);
            assert!((l.phase - r.phase).abs() < 1e-9, "{} vs {}", l.phase, r.phase);
            assert!((l.phase_spread - r.phase_spread).abs() < 1e-6);
        }
    }

    /// The 4-wide lane-unrolled scatter passes are bit-identical to the
    /// frozen reference: odd read counts (remainder loop) and repeated
    /// same-channel reads *inside* one 4-block (intra-block slot
    /// collisions) must not perturb a single bit.
    #[test]
    fn lane_unrolled_scatter_is_bit_identical_to_reference() {
        // 3 channels × 7 reads interleaved so most 4-blocks hit the same
        // slot at least twice; 21 reads total exercises the remainder.
        let mut reads = Vec::new();
        for k in 0..7usize {
            for c in 0..3usize {
                reads.push(read(c, 0.4 + 1.3 * c as f64 + 0.01 * k as f64
                    + if (k + c) % 2 == 0 { PI } else { 0.0 }));
            }
        }
        for &pi_jumps in &[true, false] {
            let cfg = PreprocessConfig {
                correct_pi_jumps: pi_jumps,
                trig: crate::trig::TrigProvider::Libm,
                ..Default::default()
            };
            let fused = preprocess_reads(&reads, &cfg).unwrap();
            let reference = crate::reference::preprocess_reads(&reads, &cfg).unwrap();
            assert_eq!(fused.len(), reference.len(), "pi_jumps={pi_jumps}");
            for (f, r) in fused.iter().zip(&reference) {
                assert_eq!(f.channel, r.channel);
                assert_eq!(f.phase.to_bits(), r.phase.to_bits(), "pi_jumps={pi_jumps}");
                assert_eq!(f.phase_spread.to_bits(), r.phase_spread.to_bits());
                assert_eq!(f.rssi_dbm.to_bits(), r.rssi_dbm.to_bits());
            }
        }
    }
}
