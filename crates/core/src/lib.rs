//! RF-Prism: versatile RFID-based sensing through phase disentangling.
//!
//! This crate is the paper's primary contribution — the pipeline of Fig. 2:
//!
//! ```text
//! raw reads ──► pre-processing ──► per-antenna line fits (kᵢ, bᵢ)
//!               (rfp-dsp)          [model]
//!                                      │
//!                       multipath suppression + error detection
//!                          [detector]  │
//!                                      ▼
//!                        joint disentangling solver  [solver]
//!                 kᵢ = 4π·dist(Aᵢ, x)/c + k_t
//!                 bᵢ = θ_orient(Aᵢ, α) + b_t   (mod 2π)
//!                                      │
//!            ┌─────────────────────────┼─────────────────────────┐
//!            ▼                         ▼                         ▼
//!      localization (x, y)      orientation (α)         material (k_t, b_t,
//!                                                       θ_material(f₁..fₙ))
//!                                                       [material]
//! ```
//!
//! The multi-frequency model (paper Eq. 6) turns each antenna's 50-channel
//! observation into a line whose slope mixes distance with the material
//! term and whose intercept mixes orientation with the material term; with
//! N ≥ 3 antennas the 2N fitted parameters over-determine the 5 unknowns
//! `(x, y, α, k_t, b_t)` and a multi-start Levenberg–Marquardt solve
//! disentangles them in one shot — no per-deployment calibration, no known
//! orientation, no antenna arrays.
//!
//! # Quick start
//!
//! ```
//! use rfp_core::RfPrism;
//! use rfp_geom::Vec2;
//! use rfp_sim::{Motion, Scene, SimTag};
//!
//! // Simulated stand-in for the paper's testbed.
//! let scene = Scene::standard_2d();
//! let tag = SimTag::with_seeded_diversity(5)
//!     .with_motion(Motion::planar_static(Vec2::new(0.3, 1.4), 0.4));
//! let survey = scene.survey(&tag, 1);
//!
//! // The sensing side sees only poses, the channel plan and raw reads.
//! let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan);
//! let result = prism.sense(&survey.per_antenna)?;
//! let err_cm = result.estimate.position.distance(Vec2::new(0.3, 1.4)) * 100.0;
//! assert!(err_cm < 40.0, "localization error {err_cm} cm");
//! # Ok::<(), rfp_core::SenseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna_cal;
pub mod batch;
pub mod calibration;
pub mod detector;
pub mod inventory;
pub mod lm;
pub mod material;
pub mod model;
pub mod obs;
pub mod pipeline;
pub mod pipeline3d;
pub mod reference;
pub mod solver;
pub mod solver3d;
pub mod streaming;
pub mod tracking;

pub use antenna_cal::AntennaCalibration;
pub use batch::{BatchCache, BatchCache3D, TagReads, TagRounds};
pub use calibration::{CalibrationDb, DeviceCalibration};
pub use detector::{DetectorConfig, MobilityVerdict};
pub use inventory::{InventorySensor, ItemOutcome, ItemReport};
pub use lm::{LaneStats, LmCore, ResidualModel, StepStats};
pub use material::{MaterialFeatures, MaterialIdentifier};
pub use model::AntennaObservation;
pub use pipeline::{RfPrism, RfPrismConfig, SenseError, SenseWorkspace, SensingResult};
pub use pipeline3d::{
    RfPrism3D, RfPrism3DConfig, Sense3DError, Sense3DWorkspace, Sensing3DResult,
};
pub use solver::{PruneStats, SolveStats, SolverConfig, TagEstimate2D, WarmGate, WarmStart};
pub use solver3d::{TagEstimate3D, WarmStart3D};
pub use streaming::StreamingSession;
pub use tracking::{TagTracker, TrackerConfig};
