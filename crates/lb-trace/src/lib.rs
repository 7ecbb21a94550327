//! # lb-trace
//!
//! Compact binary microarchitectural event traces for the Linebacker
//! reproduction: a zero-cost-when-off capture handle (`Tracer`) that the
//! simulator threads through its hot paths, a varint/delta-encoded on-disk
//! format (`LBT1`), and offline inspection tools (`summarize`, `diff`,
//! `grep`) exposed both as a library and as the `lb-trace` binary.
//!
//! The crate is std-only and knows nothing about `gpu-sim`: events carry
//! raw integers, and the simulator depends on this crate (not vice versa).
//!
//! ```
//! use lb_trace::{diff, Event, Tracer, TraceWriter, MASK_ALL};
//!
//! let t = Tracer::new(TraceWriter::to_memory(MASK_ALL));
//! t.emit(10, Event::Issue { sm: 0, warp: 3, pos: 7 });
//! t.emit(12, Event::DramTx { part: 0, class: 0, line: 0x40 });
//! let bytes = t.take_bytes().unwrap();
//! assert!(diff(&bytes, &bytes).unwrap().is_identical());
//! ```

#![forbid(unsafe_code)]

mod event;
mod reader;
mod tools;
mod tracer;
mod wire;
mod writer;

pub use event::{
    mask_names, parse_mask, Event, EventKind, L1Outcome, ALL_KINDS, FLAG_PART_IDS, MASK_ALL,
};
pub use reader::{read_file, TraceError, TraceReader};
pub use tools::{diff, grep, summarize, timeline, DiffOutcome, Filter, Summary, TimelineRow};
pub use tracer::Tracer;
pub use wire::{get_uvarint, put_uvarint};
pub use writer::{TraceWriter, MAGIC};
