//! `csd-benchmark` — one end-to-end benchmark for the durable sentry
//! path.
//!
//! The paper's claim is that a CSD-resident LSTM lets a data center
//! "immediately thwart" ransomware; the numbers that decide whether it
//! does are the wall-clock time from an API call arriving to the
//! incident it triggers being durable and handed back, the events per
//! second the whole durable path sustains, and how long it takes to
//! come back after a crash. This package measures those from outside,
//! through public functions of `csd-sentry`, `csd-accel`, `csd-tensor`
//! and `csd-ransomware`, on two seeded workloads, checks every output
//! against an offline oracle, and — in a separate traced run — splits
//! the time into a per-layer budget. See `README.md` for why each
//! workload exists and how to compare two commits.

// One foreign call (the thread CPU clock, `clock.rs`) is allowed by name.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod clock;
pub mod harness;
pub mod host;
pub mod layers;
pub mod mirror;
pub mod recover;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;
