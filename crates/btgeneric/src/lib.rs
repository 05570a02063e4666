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

/// `check!(name, holds, why...)`: an audit returns `Err` naming the
/// invariant that does not hold.
#[cfg(any(test, debug_assertions))]
macro_rules! check {
    ($name:literal, $ok:expr, $($why:tt)+) => {
        if !$ok {
            return Err(format!(concat!($name, ": {}"), format_args!($($why)+)));
        }
    };
}

pub mod btos;
pub mod chaos;
pub mod cold;
pub mod cost;
pub mod engine;
mod extents;
pub mod features;
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
