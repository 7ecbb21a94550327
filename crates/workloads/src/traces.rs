//! Registry of loaded workload traces.
//!
//! The bench harness identifies workloads by `&'static str` app keys
//! (`RunKey::app`). Trace-driven workloads arrive at runtime — decoded from
//! `.lbw1` files — so this registry bridges the two worlds: registering a
//! trace leaks a `"trace:<name>"` key string (a handful per process, for
//! the lifetime of the process, exactly like the static app abbreviations)
//! and the runner resolves such keys here before falling back to the
//! synthetic [`crate::app`] table.
//!
//! The registry is process-global and thread-safe; run-engine workers only
//! read it (cheap `Arc` clones of the shared, immutable kernels).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gpu_sim::replay::ReplayKernel;

fn registry() -> &'static Mutex<HashMap<&'static str, Arc<ReplayKernel>>> {
    static REG: OnceLock<Mutex<HashMap<&'static str, Arc<ReplayKernel>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers `rep` under the key `trace:<name>` and returns the key,
/// suitable as a bench-harness app key. Re-registering a name replaces the
/// kernel but reuses the existing leaked key.
pub fn register(name: &str, rep: Arc<ReplayKernel>) -> &'static str {
    let mut reg = registry().lock().unwrap();
    let full = format!("trace:{name}");
    if let Some(&existing) = reg.keys().find(|k| **k == full) {
        reg.insert(existing, rep);
        return existing;
    }
    let key: &'static str = Box::leak(full.into_boxed_str());
    reg.insert(key, rep);
    key
}

/// Looks up a registered trace by its full key (`trace:<name>`).
pub fn get(key: &str) -> Option<Arc<ReplayKernel>> {
    registry().lock().unwrap().get(key).cloned()
}

/// All registered trace keys, sorted (stable experiment ordering).
pub fn names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = registry().lock().unwrap().keys().copied().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::KernelBuilder;
    use gpu_sim::pattern::AccessPattern;
    use gpu_sim::replay::StreamBuilder;
    use gpu_sim::types::LineAddr;

    fn tiny() -> Arc<ReplayKernel> {
        let stub = KernelBuilder::new("t")
            .grid(1, 1)
            .load_then_use(AccessPattern::streaming(128), 0)
            .build()
            .unwrap();
        let mut stream = StreamBuilder::new(stub.body.len() as u32);
        stream.push(0, Some(&[LineAddr(1)]));
        stream.push(1, None);
        Arc::new(ReplayKernel::from_streams(stub, vec![stream]))
    }

    #[test]
    fn register_get_and_reregister() {
        let k1 = register("unit-a", tiny());
        assert_eq!(k1, "trace:unit-a");
        assert!(get(k1).is_some());
        assert!(get("trace:unknown").is_none());
        // Re-registration reuses the leaked key.
        let k2 = register("unit-a", tiny());
        assert!(std::ptr::eq(k1, k2));
        assert!(names().contains(&"trace:unit-a"));
    }
}
