#![deny(missing_docs)]
//! # BTGeneric — the OS-independent core of the IA-32 Execution Layer
//!
//! The paper's primary contribution: a two-phase dynamic binary
//! translator from IA-32 to Itanium. Cold translation works at
//! basic-block granularity from hand-tuned templates with
//! instrumentation in the translated code; hot translation re-derives an
//! IL from the *same* templates, optimizes traces (hyper-blocks), and
//! schedules aggressively while keeping exceptions precise through
//! commit points and recovery maps.

pub mod btos;
pub mod chaos;
pub mod cold;
pub mod cost;
pub mod engine;
mod extents;
pub mod hot;
pub mod layout;
pub mod persist;
pub mod policy;
mod registry;
pub mod serving;
pub mod state;
pub mod stats;
pub mod templates;
pub mod trace;
