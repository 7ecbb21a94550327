#![forbid(unsafe_code)]

use baselines::pcal_factory;
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::Gpu;
use linebacker::{linebacker_factory, LbConfig};
use workloads::app;

fn main() {
    let cfg = GpuConfig::default().with_sms(4).with_windows(10_000, 240_000);
    for name in ["S2", "GE", "AT", "S1", "PF", "KM"] {
        let a = app(name).unwrap();
        let k = a.kernel(cfg.n_sms);
        let mut g = Gpu::new(cfg.clone(), k.clone(), &pcal_factory());
        let s = g.run();
        println!("{:<3} pcal ipc {:>6.3}  {}", name, s.ipc(), g.sm(0).policy.debug_state());
        let mut g = Gpu::new(cfg.clone(), k, &linebacker_factory(LbConfig::default()));
        let s = g.run();
        println!("{:<3} lb   ipc {:>6.3}  {}", name, s.ipc(), g.sm(0).policy.debug_state());
    }
}
