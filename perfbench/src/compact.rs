//! Raw reads packed to 16 bytes each (a `RawRead` takes 48), so a
//! workload can hold thousands of distinct windows: the p99 of a pass
//! needs at least ten distinct windows beyond it. Packing checks that
//! unpacking reproduces every read bit for bit.

use rfp_dsp::preprocess::RawRead;
use rfp_phys::constants::{IMPINJ_PHASE_LSB_RAD, IMPINJ_RSSI_LSB_DB};
use rfp_phys::FrequencyPlan;

/// One quantized read: phase and RSSI as whole reader steps.
#[derive(Debug, Clone, Copy)]
struct Packed {
    timestamp_s: f64,
    rssi_steps: i16,
    phase_steps: u16,
    /// Channel index; [`CODED`] marks a read that carries its phase code.
    channel: u16,
}

const CODED: u16 = 0x8000;

/// One window's reads, antenna by antenna.
#[derive(Debug, Clone, Default)]
pub struct Reads {
    reads: Vec<Packed>,
    /// End of each antenna's run in `reads`.
    ends: Vec<usize>,
}

impl Reads {
    /// Packs a reader's quantized reads.
    ///
    /// # Panics
    ///
    /// If a read is not on the reader's phase/RSSI grids or its frequency
    /// is not its channel's in `plan`: unpacking could not reproduce it.
    pub fn pack(per_antenna: &[Vec<RawRead>], plan: &FrequencyPlan) -> Self {
        let mut out = Reads::default();
        for reads in per_antenna {
            for r in reads {
                let p = Packed {
                    timestamp_s: r.timestamp_s,
                    rssi_steps: (r.rssi_dbm / IMPINJ_RSSI_LSB_DB).round() as i16,
                    phase_steps: (r.phase / IMPINJ_PHASE_LSB_RAD).round() as u16,
                    channel: r.channel as u16 | if r.phase_code.is_some() { CODED } else { 0 },
                };
                let back = unpack(p, plan);
                assert!(
                    r.channel < CODED as usize && same_bits(&back, r),
                    "read {r:?} does not survive packing ({back:?})"
                );
                out.reads.push(p);
            }
            out.ends.push(out.reads.len());
        }
        out
    }

    /// Unpacks into `out` (one `Vec` per antenna, reused).
    pub fn unpack_into(&self, plan: &FrequencyPlan, out: &mut Vec<Vec<RawRead>>) {
        out.resize_with(self.ends.len(), Vec::new);
        let mut start = 0;
        for (reads, &end) in out.iter_mut().zip(&self.ends) {
            reads.clear();
            reads.extend(self.reads[start..end].iter().map(|&p| unpack(p, plan)));
            start = end;
        }
    }
}

fn unpack(p: Packed, plan: &FrequencyPlan) -> RawRead {
    let channel = (p.channel & !CODED) as usize;
    RawRead {
        channel,
        frequency_hz: plan.frequency_hz(channel),
        phase: f64::from(p.phase_steps) * IMPINJ_PHASE_LSB_RAD,
        rssi_dbm: f64::from(p.rssi_steps) * IMPINJ_RSSI_LSB_DB,
        timestamp_s: p.timestamp_s,
        phase_code: (p.channel & CODED != 0).then_some(p.phase_steps),
    }
}

fn same_bits(a: &RawRead, b: &RawRead) -> bool {
    a.channel == b.channel
        && a.frequency_hz.to_bits() == b.frequency_hz.to_bits()
        && a.phase.to_bits() == b.phase.to_bits()
        && a.rssi_dbm.to_bits() == b.rssi_dbm.to_bits()
        && a.timestamp_s.to_bits() == b.timestamp_s.to_bits()
        && a.phase_code == b.phase_code
}
