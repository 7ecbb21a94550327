//! Miss-Status Holding Registers: merge concurrent misses to the same line.

use crate::fastmap::FastMap;
use crate::types::LineAddr;

/// A waiter blocked on an outstanding fill: `(sm-local warp id, load id)` is
/// enough for the simulator to credit completion back to the right
/// scoreboard entry. Opaque `u64` keeps the MSHR file generic.
pub type WaiterToken = u64;

/// Outcome of [`MshrFile::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated — the request must be forwarded downstream.
    NewEntry,
    /// Merged into an existing entry — no new downstream request.
    Merged,
    /// The MSHR file is full; the access must be retried later (structural
    /// stall).
    Full,
}

/// One waiter in the slab: its token and the next node of its entry's
/// list (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    token: WaiterToken,
    next: u32,
}

/// End of a node list.
const NIL: u32 = u32::MAX;

/// The waiters of every entry of one file: nodes linked per entry in
/// merge order, and a free list of the nodes completed entries gave back.
#[derive(Debug, Clone)]
struct WaiterSlab {
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
}

impl WaiterSlab {
    /// Stores `token` in a free node, or a new one, that ends a list.
    fn push(&mut self, token: WaiterToken) -> u32 {
        let node = Node { token, next: NIL };
        if self.free == NIL {
            let i = u32::try_from(self.nodes.len()).ok().filter(|&i| i != NIL);
            self.nodes.push(node);
            return i.expect("MSHR waiters in flight exceed u32::MAX - 1");
        }
        let i = self.free;
        self.free = self.nodes[i as usize].next;
        self.nodes[i as usize] = node;
        i
    }

    /// Appends the tokens of list `first..=last` to `out`, in list order,
    /// and frees its nodes.
    fn drain_into(&mut self, (first, last): (u32, u32), out: &mut Vec<WaiterToken>) {
        let mut i = first;
        loop {
            let node = self.nodes[i as usize];
            out.push(node.token);
            if i == last {
                break;
            }
            i = node.next;
        }
        self.nodes[last as usize].next = self.free;
        self.free = first;
    }
}

/// A fixed-capacity MSHR file.
///
/// Every entry's waiters live in one slab of nodes, linked per entry in
/// merge order; an entry is only its line and the first and last node of
/// its list. [`MshrFile::complete_into`] walks the list out and returns
/// its nodes to a free list, which later [`MshrFile::allocate`] calls
/// reuse, so the slab grows only to the most waiters ever in flight at
/// once and the file performs no heap allocation in steady state.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// In-flight entries: line to the `(first, last)` node of its waiters.
    entries: FastMap<LineAddr, (u32, u32)>,
    waiters: WaiterSlab,
    merges: u64,
    stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    pub fn new(capacity: u32) -> Self {
        let mut entries = FastMap::default();
        entries.reserve(capacity as usize);
        MshrFile {
            capacity: capacity as usize,
            entries,
            waiters: WaiterSlab { nodes: Vec::new(), free: NIL },
            merges: 0,
            stalls: 0,
        }
    }

    /// Records a miss on `line` from `waiter`.
    pub fn allocate(&mut self, line: LineAddr, waiter: WaiterToken) -> MshrOutcome {
        if let Some((_, last)) = self.entries.get_mut(&line) {
            let node = self.waiters.push(waiter);
            self.waiters.nodes[*last as usize].next = node;
            *last = node;
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        let node = self.waiters.push(waiter);
        self.entries.insert(line, (node, node));
        MshrOutcome::NewEntry
    }

    /// Completes the fill of `line`, moving all merged waiters (in merge
    /// order) into `out`, which is cleared first. `out` stays empty if no
    /// entry existed (e.g. a prefetch).
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<WaiterToken>) {
        out.clear();
        if let Some(list) = self.entries.remove(&line) {
            self.waiters.drain_into(list, out);
        }
    }

    /// Completes the fill of `line`, returning all merged waiters.
    /// Convenience wrapper over [`MshrFile::complete_into`] for tests and
    /// benchmarks; the hot paths use the allocation-free form.
    pub fn complete(&mut self, line: LineAddr) -> Vec<WaiterToken> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// Is a fill for `line` already outstanding?
    pub fn pending(&self, line: LineAddr) -> bool {
        self.entries.contains_key(&line)
    }

    /// Entries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime merge count (secondary misses absorbed).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Lifetime structural-stall count (allocation attempts while full).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Bytes the file holds: the entry map's slots (line and list ends;
    /// the map's own control bytes are not counted) and the waiter slab,
    /// both by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<(LineAddr, (u32, u32))>()
            + self.waiters.nodes.capacity() * size_of::<Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::reference::RefMshrFile;
    use testkit::check;

    #[test]
    fn first_miss_allocates() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(LineAddr(1), 10), MshrOutcome::NewEntry);
        assert!(m.pending(LineAddr(1)));
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr(1), 10);
        assert_eq!(m.allocate(LineAddr(1), 11), MshrOutcome::Merged);
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn complete_returns_all_waiters() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr(1), 10);
        m.allocate(LineAddr(1), 11);
        let w = m.complete(LineAddr(1));
        assert_eq!(w, vec![10, 11]);
        assert!(!m.pending(LineAddr(1)));
    }

    #[test]
    fn full_file_stalls_new_lines_but_merges_existing() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr(1), 0);
        m.allocate(LineAddr(2), 0);
        assert_eq!(m.allocate(LineAddr(3), 0), MshrOutcome::Full);
        assert_eq!(m.stalls(), 1);
        // Merging into an existing entry is still allowed when full.
        assert_eq!(m.allocate(LineAddr(2), 1), MshrOutcome::Merged);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrFile::new(2);
        assert!(m.complete(LineAddr(9)).is_empty());
    }

    #[test]
    fn capacity_freed_after_complete() {
        let mut m = MshrFile::new(1);
        m.allocate(LineAddr(1), 0);
        assert_eq!(m.allocate(LineAddr(2), 0), MshrOutcome::Full);
        m.complete(LineAddr(1));
        assert_eq!(m.allocate(LineAddr(2), 0), MshrOutcome::NewEntry);
    }

    #[test]
    fn a_waiter_costs_16_bytes_and_steady_state_allocates_nothing() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
        let mut m = MshrFile::new(64);
        let empty = m.heap_bytes();
        let mut out = Vec::new();
        for round in 0..3 {
            for w in 0..1_000u64 {
                m.allocate(LineAddr(w % 64), w);
            }
            let grown = m.heap_bytes();
            assert_eq!(grown - empty, m.waiters.nodes.capacity() * 16);
            assert!(m.waiters.nodes.capacity() < 2 * 1_000, "round {round}");
            for line in 0..64 {
                m.complete_into(LineAddr(line), &mut out);
                assert_eq!(out.len(), if line < 1_000 % 64 { 16 } else { 15 });
            }
            assert_eq!(m.heap_bytes(), grown, "completing frees nodes, never memory");
            if round > 0 {
                assert_eq!(m.waiters.nodes.len(), 1_000, "round {round} reused the freed nodes");
            }
        }
    }

    /// Random allocations and completions, with merges and capacity
    /// stalls, give the same outcomes and waiter order as the frozen
    /// one-`Vec`-per-entry reference.
    #[test]
    fn matches_reference() {
        check("mshr_matches_reference", |r| {
            let capacity = r.range_u32(1, 9);
            let lines = r.range_u64(1, 3 * u64::from(capacity) + 2);
            let (mut new, mut old) = (MshrFile::new(capacity), RefMshrFile::new(capacity));
            let mut out = Vec::new();
            for step in 0..r.range_usize(1, 600) {
                let line = LineAddr(r.range_u64(0, lines));
                if r.range_u32(0, 3) == 0 {
                    new.complete_into(line, &mut out);
                    assert_eq!(out, old.complete(line), "complete {line} at step {step}");
                } else {
                    let token = r.u64();
                    assert_eq!(new.allocate(line, token), old.allocate(line, token), "step {step}");
                }
                assert_eq!(new.pending(line), old.pending(line));
                assert_eq!(new.in_flight(), old.in_flight());
                assert_eq!((new.merges(), new.stalls()), (old.merges(), old.stalls()));
            }
            for line in 0..lines {
                assert_eq!(new.complete(LineAddr(line)), old.complete(LineAddr(line)));
            }
        });
    }
}
