//! # partix-sim
//!
//! Deterministic discrete-event simulation substrate for the `partix`
//! reproduction of *"A Dynamic Network-Native MPI Partitioned Aggregation
//! Over InfiniBand Verbs"* (CLUSTER 2023).
//!
//! This crate provides:
//!
//! - a virtual clock and event queue ([`Scheduler`]) with deterministic
//!   same-instant ordering,
//! - [`Clock`]/[`Timer`] abstractions so the MPI runtime runs identically on
//!   virtual and wall-clock time,
//! - [`SerialResource`], the FIFO occupancy primitive used to model QP DMA
//!   engines, shared links, and software locks,
//! - seed-splitting helpers for reproducible noise ([`stream_rng`]),
//! - the sharded conservative-sync parallel-DES engine ([`pdes`]) and the
//!   order-preserving thread fan-out it runs on ([`parallel`]).
//!
//! The network *model* (LogGP parameters, per-transfer cost composition)
//! lives in `partix-verbs`; this crate is mechanism only.
//!
//! # Example
//!
//! ```
//! use partix_sim::{Scheduler, SimDuration, SimTime};
//! use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
//!
//! let sim = Scheduler::new();
//! let hits = Arc::new(AtomicU64::new(0));
//! for t_us in [30u64, 10, 20] {
//!     let hits = hits.clone();
//!     sim.at(SimTime(t_us * 1_000), move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! sim.run();
//! assert_eq!(hits.load(Ordering::Relaxed), 3);
//! assert_eq!(sim.now(), SimTime(30_000)); // the clock stopped at the last event
//! ```

#![warn(missing_docs)]

mod clock;
pub mod parallel;
pub mod pdes;
mod resource;
mod rng;
mod scheduler;
mod slab;
mod time;

pub use clock::{Clock, RealClock, SimClock, ThreadTimer, TimeSource, Timer};
pub use parallel::{default_jobs, par_map};
pub use resource::SerialResource;
pub use rng::{split_seed, stream_rng};
pub use scheduler::{SampleHook, Scheduler};
pub use time::{SimDuration, SimTime};
