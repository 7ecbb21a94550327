//! A frozen reference model of CERF's earlier register-resident tag store,
//! kept only for the differential test of [`super::CerfPolicy`]: 48 sets
//! of 32 24-byte ways, each with a `valid` flag and a 64-bit LRU stamp,
//! and an occupancy count held to the capacity. It behaves as the store
//! the `TagArray` one replaced, so a random operation sequence must give
//! identical answers on both.

use gpu_sim::types::{Cycle, LineAddr};

use super::{CERF_SETS, CERF_WAYS};

#[derive(Debug, Clone, Copy, Default)]
struct CerfWay {
    valid: bool,
    line: LineAddr,
    last_use: Cycle,
}

#[derive(Debug)]
pub struct RefCerfStore {
    ways: Vec<CerfWay>,
    pub capacity: u32,
    pub occupancy: u32,
    tick: Cycle,
}

impl RefCerfStore {
    pub fn new() -> Self {
        RefCerfStore {
            ways: vec![CerfWay::default(); CERF_SETS as usize * CERF_WAYS as usize],
            capacity: 0,
            occupancy: 0,
            tick: 0,
        }
    }

    fn stripe(&self, line: LineAddr) -> std::ops::Range<usize> {
        let start = (line.0 % CERF_SETS as u64) as usize * CERF_WAYS as usize;
        start..start + CERF_WAYS as usize
    }

    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.stripe(line);
        for w in &mut self.ways[set] {
            if w.valid && w.line == line {
                w.last_use = tick;
                return true;
            }
        }
        false
    }

    pub fn insert(&mut self, line: LineAddr) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        let set = self.stripe(line);
        if self.ways[set.clone()].iter().any(|w| w.valid && w.line == line) {
            return false;
        }
        if self.occupancy < self.capacity {
            if let Some(w) = self.ways[set.clone()].iter_mut().find(|w| !w.valid) {
                *w = CerfWay { valid: true, line, last_use: tick };
                self.occupancy += 1;
                return true;
            }
        }
        let victim = self.ways[set].iter_mut().filter(|w| w.valid).min_by_key(|w| w.last_use);
        match victim {
            Some(w) => {
                *w = CerfWay { valid: true, line, last_use: tick };
                true
            }
            None => false,
        }
    }

    pub fn invalidate(&mut self, line: LineAddr) {
        let set = self.stripe(line);
        for w in &mut self.ways[set] {
            if w.valid && w.line == line {
                w.valid = false;
                self.occupancy = self.occupancy.saturating_sub(1);
            }
        }
    }
}
