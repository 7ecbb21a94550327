//! Cache hierarchy building blocks: generic tag array, MSHR file, and the
//! concrete L1/L2 caches.

pub mod l1;
pub mod l2;
pub mod mshr;
#[cfg(test)]
mod reference;
pub mod tag_array;

pub use l1::{L1Cache, L1Lookup, LineMeta};
pub use l2::L2Cache;
pub use mshr::{MshrFile, MshrOutcome, WaiterToken};
pub use tag_array::{Evicted, TagArray};
