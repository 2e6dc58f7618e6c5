//! The survey-log format: record a round, replay it later.
//!
//! ```text
//! # rf-prism survey log v1
//! plan <start_hz> <spacing_hz> <count>
//! antenna <index> <px> <py> <pz> <bx> <by> <bz> <roll>
//! tag <id> [<truth_x> <truth_y> <alpha_rad> <material_label>]
//! read <tag_id> <antenna> <channel> <freq_hz> <phase> <rssi_dbm> <t_s>
//! ```
//!
//! Everything after `#` on a line is a comment. Lines may appear in any
//! order except that `read` lines must follow the `antenna`/`plan` lines
//! they reference. A `read` line whose frequency, phase, RSSI or timestamp
//! parses to NaN or ±∞, or whose channel is not below the `plan` channel
//! count, is skipped and counted in [`SurveyLog::skipped_reads`].

use rfp_dsp::preprocess::RawRead;
use rfp_geom::{AntennaPose, Vec2, Vec3};
use rfp_phys::{FrequencyPlan, Material};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Optional ground truth recorded alongside a tag (simulation only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagTruth {
    /// True planar position.
    pub position: Vec2,
    /// True orientation, radians.
    pub alpha: f64,
    /// True attached material.
    pub material: Material,
}

/// One tag's reads, grouped per antenna.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TagRecord {
    /// `reads[antenna_index]` in time order.
    pub per_antenna: Vec<Vec<RawRead>>,
    /// Ground truth, when recorded.
    pub truth: Option<TagTruth>,
}

/// A parsed (or to-be-written) survey log.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyLog {
    /// The channel plan of the round.
    pub plan: FrequencyPlan,
    /// Antenna poses, by index.
    pub poses: Vec<AntennaPose>,
    /// Per-tag records, keyed by tag id.
    pub tags: BTreeMap<u64, TagRecord>,
    /// `read` lines dropped by [`SurveyLog::from_text`] because a numeric
    /// field was NaN or infinite or the channel lay outside the plan.
    pub skipped_reads: usize,
}

/// Parse errors with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Unknown directive.
    UnknownDirective {
        /// Line number.
        line: usize,
    },
    /// Wrong field count or a number failed to parse.
    Malformed {
        /// Line number.
        line: usize,
    },
    /// A `read` referenced an antenna that was never declared.
    UnknownAntenna {
        /// Line number.
        line: usize,
    },
    /// No `plan` line was found.
    MissingPlan,
    /// No `antenna` lines were found.
    MissingAntennas,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::UnknownDirective { line } => write!(f, "unknown directive at line {line}"),
            LogError::Malformed { line } => write!(f, "malformed record at line {line}"),
            LogError::UnknownAntenna { line } => {
                write!(f, "read references undeclared antenna at line {line}")
            }
            LogError::MissingPlan => write!(f, "log has no `plan` line"),
            LogError::MissingAntennas => write!(f, "log has no `antenna` lines"),
        }
    }
}

impl std::error::Error for LogError {}

impl SurveyLog {
    /// An empty log for the given deployment.
    pub fn new(plan: FrequencyPlan, poses: Vec<AntennaPose>) -> Self {
        SurveyLog { plan, poses, tags: BTreeMap::new(), skipped_reads: 0 }
    }

    /// Adds one tag's survey (reads grouped per antenna) with optional
    /// ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the antenna grouping does not match the declared poses.
    pub fn add_tag(&mut self, id: u64, per_antenna: Vec<Vec<RawRead>>, truth: Option<TagTruth>) {
        assert_eq!(per_antenna.len(), self.poses.len(), "one read group per antenna");
        self.tags.insert(id, TagRecord { per_antenna, truth });
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# rf-prism survey log v1\n");
        let _ = writeln!(
            out,
            "plan {:e} {:e} {}",
            self.plan.start_hz(),
            self.plan.spacing_hz(),
            self.plan.channel_count()
        );
        for (i, pose) in self.poses.iter().enumerate() {
            let p = pose.position();
            let b = pose.boresight();
            let _ = writeln!(
                out,
                "antenna {i} {:e} {:e} {:e} {:e} {:e} {:e} {:e}",
                p.x,
                p.y,
                p.z,
                b.x,
                b.y,
                b.z,
                pose.roll()
            );
        }
        for (id, record) in &self.tags {
            match record.truth {
                Some(t) => {
                    let _ = writeln!(
                        out,
                        "tag {id} {:e} {:e} {:e} {}",
                        t.position.x,
                        t.position.y,
                        t.alpha,
                        t.material.label()
                    );
                }
                None => {
                    let _ = writeln!(out, "tag {id}");
                }
            }
            for (ai, reads) in record.per_antenna.iter().enumerate() {
                for r in reads {
                    let _ = writeln!(
                        out,
                        "read {id} {ai} {} {:e} {:e} {:e} {:e}",
                        r.channel, r.frequency_hz, r.phase, r.rssi_dbm, r.timestamp_s
                    );
                }
            }
        }
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Any [`LogError`] on structural problems.
    pub fn from_text(text: &str) -> Result<Self, LogError> {
        let mut plan: Option<FrequencyPlan> = None;
        let mut skipped_reads = 0usize;
        let mut poses: BTreeMap<usize, AntennaPose> = BTreeMap::new();
        let mut tags: BTreeMap<u64, TagRecord> = BTreeMap::new();

        for (ln0, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let ln = ln0 + 1;
            let mut parts = line.split_whitespace();
            let malformed = LogError::Malformed { line: ln };
            match parts.next() {
                Some("plan") => {
                    let nums: Vec<f64> =
                        parts.by_ref().take(3).filter_map(|v| v.parse().ok()).collect();
                    if nums.len() != 3 {
                        return Err(malformed);
                    }
                    plan = Some(FrequencyPlan::new(nums[0], nums[1], nums[2] as usize));
                }
                Some("antenna") => {
                    let nums: Vec<f64> =
                        parts.by_ref().take(8).filter_map(|v| v.parse().ok()).collect();
                    if nums.len() != 8 {
                        return Err(malformed);
                    }
                    let pose = AntennaPose::with_boresight(
                        Vec3::new(nums[1], nums[2], nums[3]),
                        Vec3::new(nums[4], nums[5], nums[6]).normalized(),
                        nums[7],
                    );
                    poses.insert(nums[0] as usize, pose);
                }
                Some("tag") => {
                    let id: u64 =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let rest: Vec<&str> = parts.collect();
                    let truth = if rest.is_empty() {
                        None
                    } else if rest.len() == 4 {
                        let x: f64 = rest[0].parse().map_err(|_| malformed.clone())?;
                        let y: f64 = rest[1].parse().map_err(|_| malformed.clone())?;
                        let alpha: f64 = rest[2].parse().map_err(|_| malformed.clone())?;
                        let material = Material::CLASSES
                            .iter()
                            .copied()
                            .find(|m| m.label() == rest[3])
                            .ok_or(malformed.clone())?;
                        Some(TagTruth { position: Vec2::new(x, y), alpha, material })
                    } else {
                        return Err(malformed);
                    };
                    tags.entry(id).or_default().truth = truth;
                }
                Some("read") => {
                    let id: u64 =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let ai: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    if !poses.contains_key(&ai) {
                        return Err(LogError::UnknownAntenna { line: ln });
                    }
                    let channel: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let nums: Vec<f64> =
                        parts.by_ref().take(4).filter_map(|v| v.parse().ok()).collect();
                    if nums.len() != 4 {
                        return Err(malformed);
                    }
                    // `f64::from_str` accepts `NaN` and `inf`; such a read
                    // would poison the tag's estimate, so it never enters.
                    if !nums.iter().all(|v| v.is_finite()) {
                        skipped_reads += 1;
                        continue;
                    }
                    let record = tags.entry(id).or_default();
                    if record.per_antenna.len() <= ai {
                        record.per_antenna.resize(ai + 1, Vec::new());
                    }
                    record.per_antenna[ai].push(RawRead {
                        channel,
                        frequency_hz: nums[0],
                        phase: nums[1],
                        rssi_dbm: nums[2],
                        timestamp_s: nums[3],
                        // The text format stores phases with exact f64
                        // round-trip ({:e}), so quantized phases land
                        // back on the grid and recover their code.
                        phase_code: rfp_dsp::trig::code_for_phase(nums[1]),
                    });
                }
                Some(_) => return Err(LogError::UnknownDirective { line: ln }),
                None => {}
            }
        }

        let plan = plan.ok_or(LogError::MissingPlan)?;
        if poses.is_empty() {
            return Err(LogError::MissingAntennas);
        }
        let n_ant = poses.keys().max().unwrap() + 1;
        let poses: Vec<AntennaPose> = (0..n_ant)
            .map(|i| poses.get(&i).copied().ok_or(LogError::MissingAntennas))
            .collect::<Result<_, _>>()?;
        // Normalize every tag's grouping to the full antenna count, and
        // drop reads on a channel the plan does not have: the front end
        // indexes its per-channel tables by channel id.
        let channels = plan.channel_count();
        for record in tags.values_mut() {
            record.per_antenna.resize(n_ant, Vec::new());
            for reads in &mut record.per_antenna {
                let before = reads.len();
                reads.retain(|r| r.channel < channels);
                skipped_reads += before - reads.len();
            }
        }
        Ok(SurveyLog { plan, poses, tags, skipped_reads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_sim::{Motion, Scene, SimTag};

    fn sample_log() -> SurveyLog {
        let scene = Scene::standard_2d();
        let mut log = SurveyLog::new(scene.reader().plan, scene.antenna_poses());
        for (i, &(x, y)) in [(0.2, 1.1), (0.9, 1.8)].iter().enumerate() {
            let tag = SimTag::with_seeded_diversity(i as u64 + 1)
                .attached_to(Material::Glass)
                .with_motion(Motion::planar_static(Vec2::new(x, y), 0.4));
            let survey = scene.survey(&tag, 10 + i as u64);
            log.add_tag(
                tag.id(),
                survey.per_antenna,
                Some(TagTruth {
                    position: Vec2::new(x, y),
                    alpha: 0.4,
                    material: Material::Glass,
                }),
            );
        }
        log
    }

    #[test]
    fn round_trips_exactly() {
        let log = sample_log();
        let text = log.to_text();
        let parsed = SurveyLog::from_text(&text).expect("own format");
        assert_eq!(parsed.plan, log.plan);
        assert_eq!(parsed.tags.len(), log.tags.len());
        for ((ia, ra), (ib, rb)) in parsed.tags.iter().zip(&log.tags) {
            assert_eq!(ia, ib);
            assert_eq!(ra.truth, rb.truth);
            assert_eq!(ra.per_antenna, rb.per_antenna);
        }
        // Poses round-trip through position/boresight/roll.
        for (a, b) in parsed.poses.iter().zip(&log.poses) {
            assert!(a.position().distance(b.position()) < 1e-12);
            assert!(a.boresight().distance(b.boresight()) < 1e-12);
            assert!(a.u().distance(b.u()) < 1e-9);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let log = sample_log();
        let mut text = String::from("# leading comment\n\n");
        text.push_str(&log.to_text());
        text.push_str("\n# trailing\n");
        assert!(SurveyLog::from_text(&text).is_ok());
    }

    #[test]
    fn error_cases() {
        assert_eq!(SurveyLog::from_text("").unwrap_err(), LogError::MissingPlan);
        assert_eq!(
            SurveyLog::from_text("plan 902.75e6 0.5e6 50\n").unwrap_err(),
            LogError::MissingAntennas
        );
        assert!(matches!(
            SurveyLog::from_text("bogus 1 2 3\n").unwrap_err(),
            LogError::UnknownDirective { line: 1 }
        ));
        assert!(matches!(
            SurveyLog::from_text("plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\nread 1 7 0 9e8 1 -50 0\n")
                .unwrap_err(),
            LogError::UnknownAntenna { line: 3 }
        ));
        assert!(matches!(
            SurveyLog::from_text("plan 9e8\n").unwrap_err(),
            LogError::Malformed { line: 1 }
        ));
    }

    #[test]
    fn non_finite_reads_are_skipped_and_counted() {
        let head = "plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\n";
        let good = "read 1 0 3 9.015e8 1.5 -50 0.25\n";
        for bad in [
            "read 1 0 3 NaN 1.5 -50 0.5\n",
            "read 1 0 3 9.015e8 inf -50 0.5\n",
            "read 1 0 3 9.015e8 1.5 -inf 0.5\n",
            "read 1 0 3 9.015e8 1.5 -50 NaN\n",
        ] {
            let log = SurveyLog::from_text(&format!("{head}{good}{bad}{good}")).unwrap();
            assert_eq!(log.skipped_reads, 1, "{bad}");
            assert_eq!(log.tags[&1].per_antenna[0].len(), 2, "{bad}");
        }
        assert_eq!(SurveyLog::from_text(&format!("{head}{good}")).unwrap().skipped_reads, 0);
    }

    #[test]
    fn out_of_plan_channels_are_skipped_and_counted() {
        let head = "plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\n";
        let good = "read 1 0 49 9.245e8 1.5 -50 0.25\n";
        for bad in [
            "read 1 0 50 9.25e8 1.5 -50 0.5\n",
            "read 1 0 18446744073709551615 9e8 1 -50 0.5\n",
        ] {
            let log = SurveyLog::from_text(&format!("{head}{good}{bad}{good}")).unwrap();
            assert_eq!(log.skipped_reads, 1, "{bad}");
            assert_eq!(log.tags[&1].per_antenna[0].len(), 2, "{bad}");
        }
    }

    #[test]
    fn tag_without_truth() {
        let text = "plan 902.75e6 5e5 50\nantenna 0 0 0 0 0 1 0 0\ntag 9\n";
        let log = SurveyLog::from_text(text).unwrap();
        assert!(log.tags[&9].truth.is_none());
    }
}
