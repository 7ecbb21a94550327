//! Kernel description: static instruction streams executed by every warp.
//!
//! A [`KernelSpec`] is the simulator's equivalent of a compiled CUDA kernel.
//! Each warp executes the same static `body` for `iterations` loop trips
//! (SIMT: all warps share the instruction stream but access different data,
//! driven by the per-load [`AccessPattern`](crate::pattern::AccessPattern)).

use crate::mem::MAX_LOADS;
use crate::pattern::AccessPattern;
use crate::types::{LoadId, Pc};

/// One static instruction in a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticInst {
    /// Program counter (unique within the kernel).
    pub pc: Pc,
    /// Operation performed.
    pub kind: InstKind,
    /// If set, the issuing warp must first wait until all outstanding line
    /// requests of the given static load (issued by this warp) complete.
    /// This is the scoreboard edge from a load to its first consumer.
    pub wait_for: Option<LoadId>,
}

/// The operation class of a [`StaticInst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstKind {
    /// Arithmetic instruction; the warp's next instruction can issue after
    /// `latency` cycles (pipelined, so it only delays the same warp).
    Alu {
        /// Issue-to-issue latency for the same warp, in cycles.
        latency: u32,
    },
    /// Global load executed by static load `load`.
    Load {
        /// The static load executed.
        load: LoadId,
    },
    /// Global store through static load-spec `load` (shares the address
    /// pattern). Stores are fire-and-forget (write-evict / no-allocate).
    Store {
        /// The static load-spec providing the address pattern.
        load: LoadId,
    },
}

/// A static global load (or store) instruction and its memory behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Identifier; indexes `KernelSpec::loads`.
    pub id: LoadId,
    /// The PC of the instruction (used by Linebacker's hashed-PC logic).
    pub pc: Pc,
    /// Address stream generator.
    pub pattern: AccessPattern,
}

/// A complete kernel: grid shape, per-thread resources and the body.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Human-readable name (e.g. the benchmark abbreviation).
    pub name: String,
    /// Total CTAs in the grid (across all SMs).
    pub grid_ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Architectural registers per thread. One warp thus occupies
    /// `regs_per_thread` warp registers (each 128 B wide).
    pub regs_per_thread: u32,
    /// Shared memory bytes per CTA (occupancy limiter only).
    pub shared_mem_per_cta: u64,
    /// Loop-body instruction stream executed by every warp.
    pub body: Vec<StaticInst>,
    /// Number of loop trips each warp executes.
    pub iterations: u32,
    /// The static loads referenced from `body`.
    pub loads: Vec<LoadSpec>,
}

impl KernelSpec {
    /// Warp registers (128 B granules) used by one warp.
    pub fn regs_per_warp(&self) -> u32 {
        self.regs_per_thread
    }

    /// Warp registers used by one CTA.
    pub fn regs_per_cta(&self) -> u32 {
        self.warps_per_cta * self.regs_per_thread
    }

    /// Threads per CTA (warps x 32).
    pub fn threads_per_cta(&self, simd_width: u32) -> u32 {
        self.warps_per_cta * simd_width
    }

    /// Dynamic instructions one warp will execute over the whole kernel.
    pub fn dyn_insts_per_warp(&self) -> u64 {
        self.body.len() as u64 * self.iterations as u64
    }

    /// Looks up a load spec by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not reference an entry of `loads` (kernel specs
    /// are validated at construction by [`KernelBuilder::build`]).
    pub fn load(&self, id: LoadId) -> &LoadSpec {
        &self.loads[id.0 as usize]
    }

    /// Assembles a spec from pre-built parts and validates it — the
    /// constructor for deserialized kernels (the `LBW1` decoder, the
    /// Accel-Sim trace importer), where PCs and load ids arrive from the
    /// input instead of a [`KernelBuilder`] counter.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        name: String,
        grid_ctas: u32,
        warps_per_cta: u32,
        regs_per_thread: u32,
        shared_mem_per_cta: u64,
        body: Vec<StaticInst>,
        iterations: u32,
        loads: Vec<LoadSpec>,
    ) -> Result<KernelSpec, String> {
        let spec = KernelSpec {
            name,
            grid_ctas,
            warps_per_cta,
            regs_per_thread,
            shared_mem_per_cta,
            body,
            iterations,
            loads,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid_ctas == 0 {
            return Err("grid has no CTAs".into());
        }
        if self.warps_per_cta == 0 {
            return Err("CTA has no warps".into());
        }
        if self.body.is_empty() {
            return Err("kernel body is empty".into());
        }
        if self.iterations == 0 {
            return Err("kernel has zero iterations".into());
        }
        if self.loads.len() > MAX_LOADS as usize {
            return Err(format!("{} static loads exceed {MAX_LOADS}", self.loads.len()));
        }
        for (i, l) in self.loads.iter().enumerate() {
            if l.id.0 as usize != i {
                return Err(format!("load {} has id {:?} (must equal its index)", i, l.id));
            }
        }
        for inst in &self.body {
            let referenced = match inst.kind {
                InstKind::Load { load } | InstKind::Store { load } => Some(load),
                InstKind::Alu { .. } => None,
            };
            for l in referenced.into_iter().chain(inst.wait_for) {
                if l.0 as usize >= self.loads.len() {
                    return Err(format!("{} references undefined load {:?}", inst.pc, l));
                }
            }
        }
        Ok(())
    }
}

/// Builder assembling a [`KernelSpec`] with automatically assigned PCs and
/// load ids.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::KernelBuilder;
/// use gpu_sim::pattern::AccessPattern;
///
/// let kernel = KernelBuilder::new("demo")
///     .grid(64, 8)
///     .regs_per_thread(32)
///     .load(AccessPattern::streaming(128))
///     .alu(4)
///     .load_then_use(AccessPattern::reuse_working_set(64 * 1024, true), 2)
///     .iterations(100)
///     .build()
///     .expect("valid kernel");
/// assert_eq!(kernel.loads.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    grid_ctas: u32,
    warps_per_cta: u32,
    regs_per_thread: u32,
    shared_mem_per_cta: u64,
    body: Vec<StaticInst>,
    iterations: u32,
    loads: Vec<LoadSpec>,
    next_pc: u32,
}

impl KernelBuilder {
    /// Starts a new kernel description named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            grid_ctas: 1,
            warps_per_cta: 1,
            regs_per_thread: 16,
            shared_mem_per_cta: 0,
            body: Vec::new(),
            iterations: 1,
            loads: Vec::new(),
            next_pc: 0,
        }
    }

    /// Sets grid shape: total CTAs and warps per CTA.
    pub fn grid(mut self, ctas: u32, warps_per_cta: u32) -> Self {
        self.grid_ctas = ctas;
        self.warps_per_cta = warps_per_cta;
        self
    }

    /// Sets architectural registers per thread.
    pub fn regs_per_thread(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Sets shared memory per CTA in bytes.
    pub fn shared_mem(mut self, bytes: u64) -> Self {
        self.shared_mem_per_cta = bytes;
        self
    }

    /// Sets the loop trip count.
    pub fn iterations(mut self, iters: u32) -> Self {
        self.iterations = iters;
        self
    }

    fn alloc_pc(&mut self) -> Pc {
        let pc = Pc(self.next_pc);
        self.next_pc += 8; // instruction encoding stride
        pc
    }

    /// Appends an ALU instruction with the given latency.
    pub fn alu(mut self, latency: u32) -> Self {
        let pc = self.alloc_pc();
        self.body.push(StaticInst { pc, kind: InstKind::Alu { latency }, wait_for: None });
        self
    }

    /// Appends a global load with the given address pattern. Returns the
    /// builder; the load's value is never waited on (pure latency hiding).
    pub fn load(mut self, pattern: AccessPattern) -> Self {
        self.push_load(pattern);
        self
    }

    fn push_load(&mut self, pattern: AccessPattern) -> LoadId {
        let id = LoadId(self.loads.len() as u32);
        let pc = self.alloc_pc();
        self.loads.push(LoadSpec { id, pc, pattern });
        self.body.push(StaticInst { pc, kind: InstKind::Load { load: id }, wait_for: None });
        id
    }

    /// Appends a load followed by `gap` single-cycle ALU instructions and a
    /// consumer ALU instruction that waits for the load (scoreboard edge).
    pub fn load_then_use(mut self, pattern: AccessPattern, gap: u32) -> Self {
        let id = self.push_load(pattern);
        for _ in 0..gap {
            self = self.alu(1);
        }
        let pc = self.alloc_pc();
        self.body.push(StaticInst { pc, kind: InstKind::Alu { latency: 1 }, wait_for: Some(id) });
        self
    }

    /// Appends a global store that reuses the address pattern of a fresh
    /// load-spec entry (stores have their own static "load" slot so their
    /// PC is distinct).
    pub fn store(mut self, pattern: AccessPattern) -> Self {
        let id = LoadId(self.loads.len() as u32);
        let pc = self.alloc_pc();
        self.loads.push(LoadSpec { id, pc, pattern });
        self.body.push(StaticInst { pc, kind: InstKind::Store { load: id }, wait_for: None });
        self
    }

    /// Finalizes the kernel.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel is structurally invalid (empty body,
    /// zero iterations, dangling load references).
    pub fn build(self) -> Result<KernelSpec, String> {
        let spec = KernelSpec {
            name: self.name,
            grid_ctas: self.grid_ctas,
            warps_per_cta: self.warps_per_cta,
            regs_per_thread: self.regs_per_thread,
            shared_mem_per_cta: self.shared_mem_per_cta,
            body: self.body,
            iterations: self.iterations,
            loads: self.loads,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AccessPattern;

    fn demo() -> KernelSpec {
        KernelBuilder::new("k")
            .grid(8, 4)
            .regs_per_thread(24)
            .load_then_use(AccessPattern::streaming(128), 1)
            .alu(4)
            .store(AccessPattern::streaming(128))
            .iterations(10)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_sequential_load_ids() {
        let k = demo();
        for (i, l) in k.loads.iter().enumerate() {
            assert_eq!(l.id.0 as usize, i);
        }
    }

    #[test]
    fn builder_assigns_unique_pcs() {
        let k = demo();
        let mut pcs: Vec<_> = k.body.iter().map(|i| i.pc).collect();
        pcs.sort();
        pcs.dedup();
        assert_eq!(pcs.len(), k.body.len());
    }

    #[test]
    fn regs_accounting() {
        let k = demo();
        assert_eq!(k.regs_per_warp(), 24);
        assert_eq!(k.regs_per_cta(), 24 * 4);
        assert_eq!(k.threads_per_cta(32), 128);
    }

    #[test]
    fn dyn_inst_count() {
        let k = demo();
        assert_eq!(k.dyn_insts_per_warp(), k.body.len() as u64 * 10);
    }

    #[test]
    fn wait_for_edge_exists() {
        let k = demo();
        assert!(k.body.iter().any(|i| i.wait_for.is_some()));
    }

    #[test]
    fn empty_body_rejected() {
        let err = KernelBuilder::new("bad").build().unwrap_err();
        assert!(err.contains("empty"));
    }

    #[test]
    fn zero_iterations_rejected() {
        let err = KernelBuilder::new("bad").alu(1).iterations(0).build().unwrap_err();
        assert!(err.contains("zero iterations"));
    }

    #[test]
    fn static_loads_are_bounded_by_the_request_field() {
        let loads = |n: u32| {
            (0..n).fold(KernelBuilder::new("wide"), |b, _| b.load(AccessPattern::streaming(128)))
        };
        assert!(loads(MAX_LOADS).build().is_ok());
        let err = loads(MAX_LOADS + 1).build().unwrap_err();
        assert_eq!(err, "65537 static loads exceed 65536");
    }

    #[test]
    fn validate_catches_dangling_load() {
        let mut k = demo();
        k.body.push(StaticInst {
            pc: Pc(9999),
            kind: InstKind::Load { load: LoadId(99) },
            wait_for: None,
        });
        assert!(k.validate().is_err());
    }
}
