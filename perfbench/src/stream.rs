//! `tracking_stream`: static tags, one `StreamingSession` each over a
//! 4-round window. Reads are replayed in stream-time order, interleaved
//! across the live sessions one reader dwell at a time; an op is one tag's
//! pushes for a dwell plus one `advance`. Replay runs as fast as it can.
//!
//! The tags are replayed in groups of four live sessions: a group's
//! sessions are built and primed with a full window (untimed), replayed,
//! then dropped. The live state (~1 MiB per session, ~4 MiB per group)
//! stays above a core's L2 (2 MiB here) while a pass still covers 256 tags,
//! so the tail is not set by a few tags. Larger groups measured a noisier
//! tail on a shared host (see README).

use crate::harness::{par_map, Accuracy, Floors, Record, Rng, Size, Workload, LAYOUT_SEED};
use crate::harness::{PAPER_LOC_CM, PAPER_MATERIAL_ACC, PAPER_ORIENT_DEG};
use crate::layers::{ns_since, Layers};
use crate::material::{CheckHead, CheckSet};
use rfp_core::{RfPrism, SenseError, SensingResult, StreamingSession};
use rfp_geom::{angle, Vec2};
use rfp_phys::Material;
use rfp_sim::{stream_rounds, Motion, Scene, SimTag, StreamRound};
use std::time::Instant;

/// Rounds a session's window spans.
const WINDOW_ROUNDS: usize = 4;

/// Rounds replayed as ops after a session's window is primed.
const TIMED_ROUNDS: usize = 2;

/// One tag's replayed stream and its truth.
struct TagStream {
    position: Vec2,
    alpha: f64,
    rounds: Vec<StreamRound>,
}

/// Seeded inputs of `tracking_stream`.
pub struct Inputs {
    scene: Scene,
    tags: Vec<TagStream>,
    /// Sessions live at once.
    group: usize,
    check: CheckSet,
}

impl Inputs {
    /// Ops in one pass.
    pub fn ops_per_pass(&self) -> usize {
        self.tags.len() * TIMED_ROUNDS * self.scene.reader().plan.channel_count()
    }

    /// A fixed population of static tags (poses from the deployment),
    /// streamed with reads drawn from `seed`.
    pub fn generate(seed: u64, size: Size) -> Self {
        let scene = Scene::standard_2d();
        let mut layout = Rng::new(LAYOUT_SEED, 5);
        let mut reads = Rng::new(seed, 5);
        let region = scene.region();
        let specs: Vec<(Vec2, f64, SimTag, u64)> = (0..size.pick(256, 4))
            .map(|_| {
                let position = Vec2::new(
                    layout.range(region.min().x, region.max().x),
                    layout.range(region.min().y, region.max().y),
                );
                let alpha = layout.range(0.0, std::f64::consts::PI);
                let material = Material::CLASSES[layout.below(Material::CLASSES.len())];
                let tag = SimTag::with_seeded_diversity(layout.next_u64() >> 16)
                    .attached_to(material)
                    .with_motion(Motion::planar_static(position, alpha));
                (position, alpha, tag, reads.next_u64())
            })
            .collect();
        let tags = par_map(specs.len(), |i| {
            let (position, alpha, ref tag, seed) = specs[i];
            let rounds = stream_rounds(&scene, tag, WINDOW_ROUNDS + TIMED_ROUNDS, seed);
            TagStream {
                position,
                alpha,
                rounds,
            }
        });
        let check = CheckSet::generate(seed, size);
        Inputs {
            scene,
            tags,
            group: size.pick(4, 2),
            check,
        }
    }

    /// The tag of every op of a pass, in op order.
    fn op_tags(&self) -> impl Iterator<Item = usize> + '_ {
        let dwells = self.scene.reader().plan.channel_count();
        (0..self.tags.len())
            .step_by(self.group)
            .flat_map(move |first| {
                let live = first..(first + self.group).min(self.tags.len());
                (0..TIMED_ROUNDS * dwells).flat_map(move |_| live.clone())
            })
    }
}

/// Set-up state: the pipeline, the live sessions and the material check.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    /// Sessions borrow their pipeline for their whole life; each set-up
    /// leaks one small pipeline so the sessions can live beside it.
    prism: &'static RfPrism,
    sessions: Vec<StreamingSession<'static>>,
    /// Per (session, antenna) read cursor into the current round.
    cursors: Vec<usize>,
    check: CheckHead,
}

impl<'a> Stream<'a> {
    /// The set-up: pipeline and material check head. The first group's
    /// sessions are built by the first [`Workload::reset`], which the
    /// set-up time includes.
    pub fn setup(inputs: &'a Inputs) -> Self {
        let scene = &inputs.scene;
        let prism: &'static RfPrism = Box::leak(Box::new(
            RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region()),
        ));
        let check = inputs.check.setup();
        Stream {
            inputs,
            prism,
            sessions: Vec::new(),
            cursors: Vec::new(),
            check,
        }
    }

    /// Fresh sessions for the group starting at tag `first`, each primed
    /// with a full window: every read of the first rounds pushed and one
    /// advance per round end.
    fn prime(&mut self, first: usize) {
        let inputs = self.inputs;
        let span = WINDOW_ROUNDS as f64 * inputs.scene.reader().round_duration_s();
        self.sessions.clear();
        for t in &inputs.tags[first..(first + inputs.group).min(inputs.tags.len())] {
            let mut session = self.prism.sense_streaming(span);
            for round in &t.rounds[..WINDOW_ROUNDS] {
                for (antenna, reads) in round.per_antenna.iter().enumerate() {
                    reads.iter().for_each(|read| session.push(antenna, read));
                }
                if let Ok(result) = session.advance(round.end_time_s) {
                    session.recycle(result);
                }
            }
            self.sessions.push(session);
        }
    }

    /// Runs `op` for every (group, round, dwell, session) in stream-time
    /// order within each group. `op` gets the session, its reads of this
    /// round, its cursors, the dwell's end time and whether it is the last
    /// dwell of the round. Groups after the first are primed on the way.
    fn replay(
        &mut self,
        mut op: impl FnMut(&mut StreamingSession<'static>, &StreamRound, &mut [usize], f64, bool),
    ) {
        let inputs = self.inputs;
        let antennas = self.prism.poses().len();
        let dwell_s = inputs.scene.reader().dwell_s;
        let dwells = inputs.scene.reader().plan.channel_count();
        for first in (0..inputs.tags.len()).step_by(inputs.group) {
            if first > 0 {
                self.prime(first);
            }
            self.cursors.resize(self.sessions.len() * antennas, 0);
            for r in WINDOW_ROUNDS..WINDOW_ROUNDS + TIMED_ROUNDS {
                self.cursors.iter_mut().for_each(|c| *c = 0);
                for d in 0..dwells {
                    let last = d + 1 == dwells;
                    for (s, session) in self.sessions.iter_mut().enumerate() {
                        let round = &inputs.tags[first + s].rounds[r];
                        let end_t = if last {
                            round.end_time_s
                        } else {
                            round.start_time_s + (d + 1) as f64 * dwell_s
                        };
                        let cursors = &mut self.cursors[s * antennas..(s + 1) * antennas];
                        op(session, round, cursors, end_t, last);
                    }
                }
            }
        }
    }
}

/// Pushes `round`'s reads up to `end_t` (all of them on the last dwell).
fn push_dwell(
    session: &mut StreamingSession,
    round: &StreamRound,
    cursors: &mut [usize],
    end_t: f64,
    last: bool,
) {
    for (antenna, reads) in round.per_antenna.iter().enumerate() {
        let cursor = &mut cursors[antenna];
        while *cursor < reads.len() && (last || reads[*cursor].timestamp_s < end_t) {
            session.push(antenna, &reads[*cursor]);
            *cursor += 1;
        }
    }
}

/// The record of an advance, recycling its buffers into the session.
fn record(session: &mut StreamingSession, advanced: Result<SensingResult, SenseError>) -> Record {
    match advanced {
        Ok(result) => {
            let e = &result.estimate;
            let rec = Record {
                estimate: Some([
                    e.position.x,
                    e.position.y,
                    e.orientation,
                    e.kt,
                    e.bt,
                    e.cost,
                    e.residual_rms,
                    e.position_std_m,
                ]),
                class: None,
            };
            session.recycle(result);
            rec
        }
        Err(_) => Record::NONE,
    }
}

impl Workload for Stream<'_> {
    fn reset(&mut self) {
        self.prime(0);
    }

    fn pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>) {
        self.replay(|session, round, cursors, end_t, last| {
            let t = Instant::now();
            push_dwell(session, round, cursors, end_t, last);
            let advanced = session.advance(end_t);
            let rec = record(session, advanced);
            lat_ns.push(ns_since(t));
            out.push(rec);
        });
    }

    fn traced_pass(&mut self, lat_ns: &mut Vec<u64>, out: &mut Vec<Record>, layers: &mut Layers) {
        let antennas = self.prism.poses().len() as u64;
        self.replay(|session, round, cursors, end_t, last| {
            let allocs = crate::alloc::events();
            let before = session.stats();
            let t_op = Instant::now();
            let t = Instant::now();
            push_dwell(session, round, cursors, end_t, last);
            layers.push_ns += ns_since(t);
            let t = Instant::now();
            let advanced = session.advance(end_t);
            layers.advance_ns += ns_since(t);
            let rec = record(session, advanced);
            layers.finish_op(t_op, allocs, lat_ns);
            let after = session.stats();
            layers.updates += after.updates - before.updates;
            layers.downdates += after.downdates - before.downdates;
            layers.rebuilds += after.rebuilds - before.rebuilds;
            layers.fallbacks += after.refit_fallbacks - before.refit_fallbacks;
            layers.antenna_windows += antennas;
            layers.retained_sum += session.retained_reads() as u64;
            out.push(rec);
        });
    }

    fn accuracy(&mut self, reference: &[Record]) -> Accuracy {
        let mut acc = Accuracy::default();
        for (t, r) in self.inputs.op_tags().zip(reference) {
            acc.ops += 1;
            let Some(e) = r.estimate else { continue };
            acc.estimates += 1;
            let tag = &self.inputs.tags[t];
            let (dx, dy) = (e[0] - tag.position.x, e[1] - tag.position.y);
            acc.loc_cm.push(dx.hypot(dy) * 100.0);
            acc.orient_deg
                .push(angle::dipole_distance(e[2], tag.alpha).to_degrees());
        }
        (acc.classified, acc.class_correct) = self.inputs.check.score(&mut self.check);
        acc
    }

    fn floors(&self) -> Floors {
        Floors {
            loc_p50_cm_max: 2.0 * PAPER_LOC_CM,
            orient_p50_deg_max: 3.0 * PAPER_ORIENT_DEG,
            material_acc_min: PAPER_MATERIAL_ACC - 0.25,
            estimate_rate_min: 0.95,
        }
    }
}
