//! # chull-core
//!
//! The paper's primary contribution, executable: sequential (Algorithm 2)
//! and parallel (Algorithm 3) randomized incremental convex hull in any
//! constant dimension `2..=8`, with exact arithmetic, full instrumentation
//! of the quantities the paper's theorems bound, baselines, and a
//! verification suite.
//!
//! Quick start:
//!
//! ```
//! use chull_core::{context::prepare_points, par, seq};
//! use chull_geometry::{generators, PointSet};
//!
//! let pts = PointSet::from_points2(&generators::disk_2d(500, 1 << 20, 42));
//! let pts = prepare_points(&pts, 7); // random insertion order
//! let (seq_hull, seq_stats) = seq::incremental_hull(&pts);
//! let par_run = par::parallel_hull(&pts, par::ParOptions::default());
//! assert_eq!(seq_hull.canonical(), par_run.output.canonical());
//! assert_eq!(seq_stats.visibility_tests, par_run.stats.visibility_tests);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bulk;
pub mod context;
pub mod degenerate;
pub mod facet;
pub mod float2d;
pub mod history;
pub mod liveset;
pub mod measure;
pub mod online;
pub mod output;
pub mod par;
pub mod seq;
pub mod stats;
pub mod telemetry;
pub mod verify;

pub use context::prepare_points;
pub use liveset::{LiveRows, LiveSet, RemoveOutcome, WindowPolicy};
pub use output::HullOutput;
pub use stats::HullStats;
