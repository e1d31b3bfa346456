//! # dca-sched — access queues and arbiters
//!
//! The queue/arbiter substrate shared by all three controller designs in
//! the paper:
//!
//! * [`queue`] — bounded access queues whose entries carry the metadata the
//!   designs disagree about: the DRAM access itself, the *cache request
//!   type* it came from, and (for DCA) the priority-read / low-priority-read
//!   classification. Each queue keeps a per-bank slot index, so the
//!   arbiters below pick from a [`SlotSet`] of candidates instead of
//!   scanning the queue.
//! * [`bliss`] — the Blacklisting memory scheduler (Subramanian et al.
//!   \[11\]), the base arbitration algorithm under every design in the
//!   paper's evaluation: applications that hog consecutive service slots
//!   get blacklisted for an interval; arbitration then prefers
//!   non-blacklisted, then row hits, then age.
//! * [`frfcfs`] — classic FR-FCFS, used as an ablation arbiter.
//! * [`hysteresis`] — two-threshold state machines: the write-queue drain
//!   policy (§II-A: forced flush at the high mark, opportunistic service
//!   above the low mark when reads are idle) and DCA's Algorithm-1
//!   ScheduleAll band (85 %/75 %).

pub mod bliss;
pub mod frfcfs;
pub mod hysteresis;
pub mod queue;

pub use bliss::Bliss;
pub use frfcfs::FrFcfs;
pub use hysteresis::{DrainPolicy, Hysteresis};
pub use queue::{banks_of, AccessQueue, QueueEntry, ReadClass, SlotSet};
