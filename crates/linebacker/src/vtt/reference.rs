//! A frozen reference model of the earlier VTT layout, kept only for the
//! differential tests of [`super::Vtt`]: one 24-byte way per slot, with
//! `valid` and `invalidated` flags and a 64-bit LRU stamp. It behaves as
//! the layout the compact one replaced, so a random operation sequence
//! must give identical answers on both.

use gpu_sim::types::{Cycle, LineAddr, RegNum};

use super::VttHit;
use crate::config::LbConfig;

#[derive(Debug, Clone, Copy, Default)]
struct VttWay {
    valid: bool,
    invalidated: bool,
    line: LineAddr,
    last_use: Cycle,
}

#[derive(Debug)]
pub struct RefVtt {
    cfg: LbConfig,
    ways: Vec<VttWay>,
    active_vps: u32,
    first_active: u32,
    tag_only: bool,
    tick: Cycle,
    hits: u64,
    misses: u64,
    insertions: u64,
    store_invalidations: u64,
}

impl RefVtt {
    pub fn new(cfg: &LbConfig) -> Self {
        RefVtt {
            cfg: cfg.clone(),
            ways: vec![VttWay::default(); (cfg.max_vps() * cfg.entries_per_vp()) as usize],
            active_vps: 0,
            first_active: cfg.max_vps(),
            tag_only: true,
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            store_invalidations: 0,
        }
    }

    fn reg_of(&self, vp: u32, set: u32, way: u32) -> RegNum {
        RegNum(self.cfg.rn_offset + vp * self.cfg.entries_per_vp() + set * self.cfg.vp_assoc + way)
    }

    pub fn set_tag_only(&mut self, tag_only: bool) {
        if self.tag_only != tag_only {
            self.tag_only = tag_only;
            self.ways.fill(VttWay::default());
        }
    }

    pub fn active_vps(&self) -> u32 {
        self.active_vps
    }

    pub fn first_active(&self) -> u32 {
        self.first_active
    }

    pub fn victim_regs(&self) -> u32 {
        if self.tag_only {
            0
        } else {
            self.active_vps * self.cfg.regs_per_vp()
        }
    }

    pub fn refresh_partitions(&mut self, min_free_rn: u32) {
        for vp in 0..self.cfg.max_vps() {
            if self.reg_of(vp, 0, 0).0 >= min_free_rn {
                for dead in 0..vp {
                    self.flush_vp(dead);
                }
                self.first_active = vp;
                self.active_vps = self.cfg.max_vps() - vp;
                return;
            }
        }
        for vp in 0..self.cfg.max_vps() {
            self.flush_vp(vp);
        }
        self.first_active = self.cfg.max_vps();
        self.active_vps = 0;
    }

    fn flush_vp(&mut self, vp: u32) {
        let per_vp = self.cfg.entries_per_vp() as usize;
        let start = vp as usize * per_vp;
        self.ways[start..start + per_vp].fill(VttWay::default());
    }

    fn stripe(&self, vp: u32, set: usize) -> std::ops::Range<usize> {
        let assoc = self.cfg.vp_assoc as usize;
        let start = (vp as usize * self.cfg.vtt_sets as usize + set) * assoc;
        start..start + assoc
    }

    fn search_range(&self) -> std::ops::Range<u32> {
        if self.tag_only {
            0..self.cfg.max_vps()
        } else {
            self.first_active..self.first_active + self.active_vps
        }
    }

    pub fn lookup(&mut self, line: LineAddr) -> Option<VttHit> {
        self.tick += 1;
        let set = (line.0 % self.cfg.vtt_sets as u64) as usize;
        let range = self.search_range();
        let first = range.start;
        for vp in range {
            let stripe = self.stripe(vp, set);
            for (w, way) in self.ways[stripe].iter_mut().enumerate() {
                if way.valid && !way.invalidated && way.line == line {
                    way.last_use = self.tick;
                    self.hits += 1;
                    return Some(VttHit {
                        vp: vp - first,
                        rn: self.reg_of(vp, set as u32, w as u32),
                    });
                }
            }
        }
        self.misses += 1;
        None
    }

    pub fn insert(&mut self, line: LineAddr) -> Option<RegNum> {
        let range = self.search_range();
        if range.is_empty() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let set = (line.0 % self.cfg.vtt_sets as u64) as usize;
        for vp in range.clone() {
            let stripe = self.stripe(vp, set);
            for way in &mut self.ways[stripe] {
                if way.valid && way.line == line {
                    way.last_use = tick;
                    way.invalidated = false;
                    return None;
                }
            }
        }
        for vp in range.clone() {
            let stripe = self.stripe(vp, set);
            for (w, way) in self.ways[stripe].iter_mut().enumerate() {
                if !way.valid || way.invalidated {
                    *way = VttWay { valid: true, invalidated: false, line, last_use: tick };
                    self.insertions += 1;
                    return Some(self.reg_of(vp, set as u32, w as u32));
                }
            }
        }
        let mut victim: Option<(u32, u32, Cycle)> = None;
        for vp in range {
            for (w, way) in self.ways[self.stripe(vp, set)].iter().enumerate() {
                let lu = way.last_use;
                if victim.map(|(_, _, best)| lu < best).unwrap_or(true) {
                    victim = Some((vp, w as u32, lu));
                }
            }
        }
        let (vp, w, _) = victim.expect("nonempty range has ways");
        let slot = self.stripe(vp, set).start + w as usize;
        self.ways[slot] = VttWay { valid: true, invalidated: false, line, last_use: tick };
        self.insertions += 1;
        Some(self.reg_of(vp, set as u32, w))
    }

    pub fn invalidate_store(&mut self, line: LineAddr) -> bool {
        let set = (line.0 % self.cfg.vtt_sets as u64) as usize;
        for vp in self.search_range() {
            let stripe = self.stripe(vp, set);
            for way in &mut self.ways[stripe] {
                if way.valid && !way.invalidated && way.line == line {
                    way.invalidated = true;
                    self.store_invalidations += 1;
                    return true;
                }
            }
        }
        false
    }

    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.insertions, self.store_invalidations)
    }

    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid && !w.invalidated).count()
    }
}
