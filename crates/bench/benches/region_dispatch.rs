//! Region fork/join + barrier microbench: the unified team runtime (slot
//! dispatch onto persistent workers + sense-reversing spin-then-park
//! barrier) against a faithful copy of the pre-refactor machinery
//! (per-region `Arc` state, boxed jobs through an mpsc channel, and a
//! Mutex+Condvar generation barrier).
//!
//! Each measured iteration forks a team of `K` workers, crosses
//! `BARRIERS_PER_REGION` team barriers in the body, and joins — the
//! per-region overhead the paper's iterative kernels pay once per sweep.
//! The acceptance bar for the refactor is ≥ 2× lower per-region cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use ppar_core::ctx::{Ctx, RunShared};
use ppar_core::plan::{Plan, Plug};
use ppar_core::runtime::TeamEngine;
use ppar_core::state::Registry;

const BARRIERS_PER_REGION: usize = 8;

/// A faithful skeleton of the pre-refactor shared-memory dispatch path.
mod legacy {
    use crossbeam::channel::{unbounded, Sender};
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;

    struct BarrierState {
        size: usize,
        arrived: usize,
        generation: u64,
    }

    /// The old Mutex+Condvar generation barrier.
    pub struct CondvarBarrier {
        state: Mutex<BarrierState>,
        cv: Condvar,
    }

    impl CondvarBarrier {
        pub fn new(size: usize) -> Self {
            CondvarBarrier {
                state: Mutex::new(BarrierState {
                    size: size.max(1),
                    arrived: 0,
                    generation: 0,
                }),
                cv: Condvar::new(),
            }
        }

        pub fn wait(&self) {
            let mut s = self.state.lock();
            s.arrived += 1;
            if s.arrived >= s.size {
                s.arrived = 0;
                s.generation = s.generation.wrapping_add(1);
                self.cv.notify_all();
            } else {
                let gen = s.generation;
                while s.generation == gen {
                    self.cv.wait(&mut s);
                }
            }
        }
    }

    pub struct CountLatch {
        count: Mutex<isize>,
        cv: Condvar,
    }

    impl CountLatch {
        pub fn new(n: usize) -> Arc<CountLatch> {
            Arc::new(CountLatch {
                count: Mutex::new(n as isize),
                cv: Condvar::new(),
            })
        }

        pub fn count_down(&self) {
            let mut c = self.count.lock();
            *c -= 1;
            if *c <= 0 {
                self.cv.notify_all();
            }
        }

        pub fn wait(&self) {
            let mut c = self.count.lock();
            while *c > 0 {
                self.cv.wait(&mut c);
            }
        }
    }

    enum Job {
        Run(Box<dyn FnOnce() + Send>),
        Shutdown,
    }

    /// The old channel pool: one unbounded mpsc per worker, every dispatch
    /// boxes a closure.
    pub struct ChannelPool {
        senders: Vec<Sender<Job>>,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    impl ChannelPool {
        pub fn new(workers: usize) -> ChannelPool {
            let mut senders = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..workers {
                let (tx, rx) = unbounded::<Job>();
                senders.push(tx);
                handles.push(std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        match job {
                            Job::Run(f) => f(),
                            Job::Shutdown => break,
                        }
                    }
                }));
            }
            ChannelPool { senders, handles }
        }

        pub fn dispatch(&self, slot: usize, job: impl FnOnce() + Send + 'static) {
            self.senders[slot]
                .send(Job::Run(Box::new(job)))
                .expect("pool worker hung up");
        }
    }

    impl Drop for ChannelPool {
        fn drop(&mut self) {
            for tx in &self.senders {
                let _ = tx.send(Job::Shutdown);
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }

    /// One legacy "region": allocate the per-region coordination state
    /// (as the old engine did), dispatch boxed jobs, cross `barriers`
    /// barriers on every worker, join.
    pub fn region(pool: &ChannelPool, team: usize, barriers: usize) {
        let barrier = Arc::new(CondvarBarrier::new(team));
        let latch = CountLatch::new(team - 1);
        for w in 0..team - 1 {
            let (b, l) = (barrier.clone(), latch.clone());
            pool.dispatch(w, move || {
                for _ in 0..barriers {
                    b.wait();
                }
                l.count_down();
            });
        }
        for _ in 0..barriers {
            barrier.wait();
        }
        latch.wait();
    }
}

/// One region on the unified runtime, same shape: fork `team` workers,
/// cross `BARRIERS_PER_REGION` barriers, join.
fn runtime_region(ctx: &Ctx) {
    ctx.region("r", |ctx| {
        for _ in 0..BARRIERS_PER_REGION {
            ctx.barrier();
        }
    });
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_dispatch");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));

    for team in [4usize, 8] {
        // --- baseline: boxed-job channel dispatch + condvar barrier ---
        let pool = legacy::ChannelPool::new(team - 1);
        g.bench_function(format!("legacy_channel_condvar_{team}w"), |b| {
            b.iter(|| legacy::region(&pool, team, BARRIERS_PER_REGION))
        });
        drop(pool);

        // --- unified runtime: slot dispatch + sense-reversing barrier ---
        let plan = Arc::new(Plan::new().plug(Plug::ParallelMethod { method: "r".into() }));
        let engine = TeamEngine::fixed(team);
        let shared = RunShared::new(plan, Arc::new(Registry::new()), engine, None, None);
        let ctx = Ctx::new_root(shared);
        g.bench_function(format!("unified_slot_sense_{team}w"), |b| {
            b.iter(|| runtime_region(&ctx))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
