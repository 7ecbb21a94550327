//! Frozen reference models of the earlier cache layouts, kept only for the
//! differential tests of [`super::tag_array`] and [`super::mshr`].
//!
//! `RefTagArray` is the way-per-slot array with a `valid` flag and a 64-bit
//! LRU stamp per way; `RefMshrFile` keeps one waiter `Vec` per entry. Both
//! are copied unchanged in behaviour from the layouts the compact ones
//! replaced, so a random operation sequence must give identical answers
//! on both.

use crate::cache::mshr::{MshrOutcome, WaiterToken};
use crate::cache::tag_array::Evicted;
use crate::fastmap::FastMap;
use crate::types::{Cycle, LineAddr};

#[derive(Debug, Clone)]
struct Way<P> {
    valid: bool,
    line: LineAddr,
    last_use: Cycle,
    payload: P,
}

/// Set-associative tag array with a per-way true-LRU stamp.
#[derive(Debug, Clone)]
pub struct RefTagArray<P> {
    ways: Vec<Way<P>>,
    n_sets: usize,
    assoc: usize,
    tick: Cycle,
}

impl<P: Clone + Default> RefTagArray<P> {
    pub fn new(n_sets: u32, assoc: u32) -> Self {
        let total = n_sets as usize * assoc as usize;
        RefTagArray {
            ways: (0..total)
                .map(|_| Way {
                    valid: false,
                    line: LineAddr(0),
                    last_use: 0,
                    payload: P::default(),
                })
                .collect(),
            n_sets: n_sets as usize,
            assoc: assoc as usize,
            tick: 0,
        }
    }

    fn stripe(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = (line.0 % self.n_sets as u64) as usize;
        s * self.assoc..(s + 1) * self.assoc
    }

    pub fn probe(&mut self, line: LineAddr) -> Option<&mut P> {
        self.tick += 1;
        let tick = self.tick;
        let stripe = self.stripe(line);
        let w = self.ways[stripe].iter_mut().find(|w| w.valid && w.line == line)?;
        w.last_use = tick;
        Some(&mut w.payload)
    }

    pub fn peek(&self, line: LineAddr) -> Option<&P> {
        self.ways[self.stripe(line)].iter().find(|w| w.valid && w.line == line).map(|w| &w.payload)
    }

    pub fn fill(&mut self, line: LineAddr, payload: P) -> Option<Evicted<P>> {
        self.tick += 1;
        let tick = self.tick;
        let stripe = self.stripe(line);
        let set = &mut self.ways[stripe];
        if let Some(w) = set.iter_mut().find(|w| !w.valid) {
            *w = Way { valid: true, line, last_use: tick, payload };
            return None;
        }
        let victim = set.iter_mut().min_by_key(|w| w.last_use).expect("set is full, so nonempty");
        let evicted =
            Evicted { line: victim.line, payload: std::mem::replace(&mut victim.payload, payload) };
        victim.line = line;
        victim.last_use = tick;
        Some(evicted)
    }

    pub fn invalidate(&mut self, line: LineAddr) -> Option<P> {
        let stripe = self.stripe(line);
        let w = self.ways[stripe].iter_mut().find(|w| w.valid && w.line == line)?;
        w.valid = false;
        Some(std::mem::take(&mut w.payload))
    }

    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

/// MSHR file with one waiter `Vec` per entry.
#[derive(Debug, Clone)]
pub struct RefMshrFile {
    capacity: usize,
    entries: FastMap<LineAddr, Vec<WaiterToken>>,
    merges: u64,
    stalls: u64,
}

impl RefMshrFile {
    pub fn new(capacity: u32) -> Self {
        RefMshrFile {
            capacity: capacity as usize,
            entries: FastMap::default(),
            merges: 0,
            stalls: 0,
        }
    }

    pub fn allocate(&mut self, line: LineAddr, waiter: WaiterToken) -> MshrOutcome {
        if let Some(waiters) = self.entries.get_mut(&line) {
            waiters.push(waiter);
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        self.entries.insert(line, vec![waiter]);
        MshrOutcome::NewEntry
    }

    pub fn complete(&mut self, line: LineAddr) -> Vec<WaiterToken> {
        self.entries.remove(&line).unwrap_or_default()
    }

    pub fn pending(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line)
    }

    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    pub fn merges(&self) -> u64 {
        self.merges
    }

    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}
