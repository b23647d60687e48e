//! Real multi-process distributed SOR over TCP — the `ppar-net` quickstart.
//!
//! Run the parent role with a rank count (default 2):
//!
//! ```bash
//! cargo run --release --example net_sor            # 2 processes
//! cargo run --release --example net_sor -- 4       # 4 processes
//! ```
//!
//! The parent relaunches this same binary N times through
//! `spawn_local_cluster`; each child finds the `PPAR_RANK` / `PPAR_NRANKS`
//! / `PPAR_ROOT` contract in its environment, bootstraps a `TcpFabric`
//! mesh over loopback, and runs the *unchanged* pluggable SOR with
//! checkpointing plugged — the identical plan and base code the simulated
//! and thread-backed deployments use. Rank 0 reports the checksum, which
//! the parent compares bitwise against the in-process sequential run.

use std::io::Write as _;

use ppar_adapt::netrun::{run_cluster_until_complete, ClusterSpec, NetConfig};
use ppar_adapt::{run_net_rank, AppStatus};
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

const OUT_ENV: &str = "PPAR_EXAMPLE_OUT";
const CKPT_ENV: &str = "PPAR_EXAMPLE_CKPT";

fn params() -> SorParams {
    SorParams::new(256, 20)
}

fn worker(cfg: NetConfig) {
    // The checkpoint directory is chosen ONCE by the parent and shared by
    // every launch attempt — keying it to a rank pid would give each
    // relaunch a fresh empty store and silently lose the recovery path.
    let ckpt_dir = std::path::PathBuf::from(std::env::var(CKPT_ENV).expect("ckpt dir"));
    let plan = plan_dist().merge(plan_ckpt(5));
    let p = params();
    let outcome = run_net_rank(&cfg, plan, Some(&ckpt_dir), |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &p))
    })
    .expect("rank run");
    println!(
        "[rank {}/{}] checksum={:.6} traffic: {} msgs, {} bytes ({})",
        outcome.rank,
        outcome.nranks,
        outcome.result.checksum,
        outcome.traffic.msgs(),
        outcome.traffic.bytes(),
        outcome.tag(),
    );
    if outcome.rank == 0 {
        let mut f = std::fs::File::create(std::env::var(OUT_ENV).expect("out path")).unwrap();
        writeln!(f, "{:016x}", outcome.result.checksum.to_bits()).unwrap();
    }
}

fn main() {
    if let Some(cfg) = NetConfig::from_env().expect("env contract") {
        return worker(cfg);
    }
    let nranks: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("rank count"))
        .unwrap_or(2);
    let out = std::env::temp_dir().join(format!("ppar_net_sor_out_{}.txt", std::process::id()));
    let ckpt = std::env::temp_dir().join(format!("ppar_net_sor_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let spec = ClusterSpec::current_exe(nranks, Vec::new())
        .expect("current exe")
        .env(OUT_ENV, out.to_string_lossy().to_string())
        .env(CKPT_ENV, ckpt.to_string_lossy().to_string());
    println!("launching {nranks} rank processes over loopback TCP…");
    let attempts = run_cluster_until_complete(&spec, 1).expect("cluster run");
    let bits = std::fs::read_to_string(&out).expect("rank 0 result");
    let reference = sor_seq(&params()).checksum.to_bits();
    let tcp = u64::from_str_radix(bits.trim(), 16).expect("hex bits");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&ckpt);
    println!(
        "tcp{nranks} completed in {attempts} launch(es); bitwise vs sequential: {}",
        if tcp == reference {
            "MATCH"
        } else {
            "MISMATCH"
        }
    );
    assert_eq!(tcp, reference, "TCP run must reproduce sequential bitwise");
}
