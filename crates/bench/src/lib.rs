//! # partix-bench
//!
//! Experiment harnesses and reporting for regenerating every table and
//! figure of the paper's evaluation. The `figures` binary drives
//! [`experiments`] and times each figure; the product's own speed is
//! measured by `perfbench/` at the repository root.

#![warn(missing_docs)]

pub mod ablations;
pub mod artifacts;
pub mod check;
pub mod experiments;
pub mod plots;
pub mod prom;
pub mod report;
pub mod tracefile;
