//! # RF-Prism — versatile RFID-based sensing through phase disentangling
//!
//! A from-scratch Rust reproduction of *RF-Prism: Versatile RFID-based
//! Sensing through Phase Disentangling* (Yang, Jin, He, Liu — ICDCS 2021).
//!
//! The phase a UHF RFID reader reports is the entangled sum of the
//! propagation distance, the tag's polarization orientation and the
//! device/material response. RF-Prism disentangles these by fitting the
//! phase across the reader's 50 hopping channels into a line per antenna
//! and jointly solving the resulting slope/intercept equations over three
//! or more antennas — recovering **location, orientation and material
//! simultaneously** from one hop round.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`geom`] | vectors, angles, poses, regions |
//! | [`phys`] | shared forward models (Eqs. 1–7 of the paper) |
//! | [`sim`]  | the COTS testbed simulator (reader, antennas, tags, noise, multipath, mobility) |
//! | [`dsp`]  | π-jump correction, unwrapping, line fitting, multipath suppression |
//! | [`ml`]   | KNN / SVM / decision tree / DTW / MLP, from scratch |
//! | [`core`] | the RF-Prism pipeline: disentangling solver, calibration, material ID, error detector |
//! | [`baselines`] | MobiTagbot, Tagtag and BackPos comparison systems |
//!
//! # Quick start
//!
//! ```
//! use rf_prism::prelude::*;
//!
//! // A simulated stand-in for the paper's testbed (3 antennas, R420).
//! let scene = Scene::standard_2d();
//! let tag = SimTag::with_seeded_diversity(42)
//!     .attached_to(Material::Glass)
//!     .with_motion(Motion::planar_static(Vec2::new(0.4, 1.3), 0.8));
//! let survey = scene.survey(&tag, 7);
//!
//! // Sense: position + orientation + material parameters in one shot.
//! let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
//!     .with_region(scene.region());
//! let result = prism.sense(&survey.per_antenna)?;
//! assert!(result.estimate.position.distance(Vec2::new(0.4, 1.3)) < 0.4);
//! # Ok::<(), rf_prism::core::SenseError>(())
//! ```
//!
//! See `examples/` for complete scenarios (chemical-lab inventory, a
//! conveyor line with the mobility error detector, the calibration
//! workflow) and `crates/bench` for the harness that regenerates every
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rfp_baselines as baselines;
pub use rfp_core as core;
pub use rfp_dsp as dsp;
pub use rfp_geom as geom;
pub use rfp_ml as ml;
pub use rfp_phys as phys;
pub use rfp_sim as sim;

/// One-line import for the common API surface.
pub mod prelude {
    pub use rfp_core::{
        BatchCache, BatchCache3D, CalibrationDb, DeviceCalibration, MaterialFeatures,
        MaterialIdentifier, MobilityVerdict, PruneStats, RfPrism, RfPrismConfig, SenseError,
        SenseWorkspace, SensingResult, SolveStats, SolverConfig, StreamingSession,
        TagEstimate2D, TagReads, TagRounds, WarmStart, WarmStart3D,
    };
    pub use rfp_geom::{AntennaPose, Region2, Vec2, Vec3};
    pub use rfp_phys::{FrequencyPlan, Material, TagElectrical};
    pub use rfp_sim::{
        stream_rounds, Antenna, HopSurvey, Motion, MultipathEnvironment, NoiseModel,
        ReaderConfig, Scene, SimTag, StreamRound,
    };
}
