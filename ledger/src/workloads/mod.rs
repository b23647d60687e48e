//! The six workloads. Each is one closed loop: one application at a time,
//! never more than two threads or two loopback connections.
//!
//! Method, the same for every timing: a quantity is sampled in rounds;
//! within a round all arms run back to back in an order that rotates from
//! round to round; ratios are taken inside a round and the median of the
//! per-round ratios is reported; plain timings report their median. Set-up
//! (everything before the first timed sample, the warm-up included) is run
//! several times and its median is `setup_s`.

mod ckpt;
mod recover;
mod smc;
mod sor;
mod wire;

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::report::WorkloadReport;
use crate::scratch::Scratch;
use crate::stats::median;
use crate::trace::Tracer;

/// How often a workload sets up; the median is reported. (Once in a quick
/// pass: a set-up makes the cold saves, the slowest thing a store does.)
const SETUP_REPS: usize = 3;
/// Rounds a pass makes even when they overrun `--seconds`: seven where the
/// issue asked for nine or eleven and let them be cut to seven; three for
/// `ckpt_*` (the issue's own count, at 24 and 8 saves per arm and round)
/// and for `wire_ckpt` (the issue's twelve cycles per root are two sets).
const MIN_ROUNDS: usize = 7;
const MIN_ROUNDS_OF_MANY_SAVES: usize = 3;
/// How far the rounds above the third may overrun `--seconds`, as a share
/// of it. When the host gives two-way arms a third of their usual speed,
/// seven rounds of `recover_reshape` took 35 s of 15, and the driver's runs
/// all together have a time limit.
const OVERRUN: f64 = 0.5;
/// Rounds of a `--quick` pass: every code path once, numbers not comparable.
const QUICK_ROUNDS: usize = 3;

pub struct Env<'a> {
    pub seed: u64,
    /// How long the rounds of one pass measure.
    pub seconds: f64,
    /// 1/8 of the cells, a quarter of the steps, three rounds.
    pub quick: bool,
    pub cores: usize,
    pub scratch: &'a Scratch,
    pub tracer: &'a Tracer,
}

impl Env<'_> {
    /// A seed for one input, derived from `--seed` and the input's name.
    pub fn seed_for(&self, input: &str) -> u64 {
        derive_seed(self.seed, input)
    }

    /// Steps (iterations) of an arm: a quarter of `full` in a quick pass,
    /// which is there to run every code path, not to measure.
    pub fn steps(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(2)
        } else {
            full
        }
    }

    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Are there two cores, so that a two-way arm measures what its name
    /// says? With one, parallel arms are skipped, never reported as 0.99x.
    pub fn parallel(&self) -> bool {
        self.cores >= 2
    }

    /// Seconds the rounds may take: all of `--seconds` untraced; under
    /// tracing the probes and re-enacted stages get the other half.
    fn round_budget(&self) -> f64 {
        if self.tracer.enabled() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    fn rounds(&self, floor: usize) -> Rounds {
        Rounds {
            start: Instant::now(),
            budget: self.round_budget(),
            floor,
            fixed: self.quick.then_some(QUICK_ROUNDS),
            done: 0,
        }
    }
}

/// What a workload's time is made of, and so which yardstick it is divided
/// by. This host slows down in kinds: over one hour `page` rose 1.5x and
/// with it the flat arm of `ckpt_sparse` (1.48x) and its set-up, while
/// `smc_task` and its set-up stayed within 2% (dividing them by `page` moved
/// them by -32%); in another the SOR runs took 1.4-2x as long with `alu`
/// level and `page` anywhere between 1.1x and 1.9x.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16 MiB states allocated, filled, saved and read back: `ckpt_*`,
    /// `wire_ckpt`.
    Page,
    /// An 8 MiB grid swept over and over by one thread: the set-ups of
    /// `sor_compute` and `recover_reshape`.
    Sweep,
    /// Arithmetic on data that stays in cache: `smc_task`.
    Alu,
    /// Two threads sweeping an 8 MiB grid in lock step, a barrier after
    /// every colour: the two-way SOR runs that are the reference arms of
    /// `sor_compute` and `recover_reshape`. Their set-ups, one thread most
    /// of the time, stay `Sweep`. When anything else wants one of the two
    /// cores, two threads that wait for each other lose far more than one
    /// thread does, so no one-thread kernel says how slow they will be: with
    /// a third thread busy on and off for seconds at a time, the median of
    /// ten `smp2` runs over `sweep` spread by 34% between sets of ten and
    /// over `team` by 6%, as it did on a quiet host.
    Team,
}

/// What the yardsticks take on this class of machine when nobody else is on
/// the host. Only scales: a reading over its nominal is how many times
/// slower than usual the machine is at that kind of work.
const PAGE_NOMINAL_S: f64 = 0.010;
const SWEEP_NOMINAL_S: f64 = 0.008;
const ALU_NOMINAL_S: f64 = 0.0048;
const TEAM_NOMINAL_S: f64 = 0.090;

/// The `page` yardstick: 16 MiB allocated, touched for the first time,
/// streamed over twice and folded. Like the other three it is `std` only, so
/// no change to the repository can move it; it takes what the host's
/// weather lets it take, 1.3x to 2x more for tens of seconds to hours at a
/// time.
fn page_once() -> f64 {
    let noise = |i: usize| {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let start = Instant::now();
    let mut v: Vec<f64> = (0..1usize << 21).map(noise).collect();
    for (i, x) in v.iter_mut().enumerate() {
        *x = 0.5 * *x + noise(i ^ 0x5555_5555);
    }
    black_box(v.iter().fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits()));
    start.elapsed().as_secs_f64()
}

/// Cells of the grid the `sweep` yardstick works on: 1024 rows of 1024.
const SWEEP_ROW: usize = 1024;

/// The `sweep` yardstick: twelve relaxation sweeps over an 8 MiB grid that
/// is already resident, each cell from the rows above and below it.
fn sweep_once(grid: &mut [f64]) -> f64 {
    let start = Instant::now();
    for _ in 0..12 {
        for i in SWEEP_ROW..grid.len() - SWEEP_ROW {
            grid[i] = 0.5 * grid[i] + 0.25 * (grid[i - SWEEP_ROW] + grid[i + SWEEP_ROW]);
        }
    }
    black_box(grid[grid.len() / 2]);
    start.elapsed().as_secs_f64()
}

/// Red-black sweeps of the `team` yardstick.
const TEAM_SWEEPS: usize = 36;

/// The `team` yardstick: what the hand-written two-thread SOR does, in
/// `std` only. A fresh 8 MiB grid, each of two threads relaxing its block of
/// rows, red cells then black, a barrier after every colour. It takes half
/// as long as the run it stands beside, long enough to meet the same weather.
fn team_once() -> f64 {
    const N: usize = SWEEP_ROW;
    let start = Instant::now();
    let grid: Vec<AtomicU64> = (0..N * N)
        .map(|i| AtomicU64::new(((i % 7) as f64 * 0.1).to_bits()))
        .collect();
    let get = |i: usize| f64::from_bits(grid[i].load(Ordering::Relaxed));
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for (lo, hi) in [(1, N / 2), (N / 2, N - 1)] {
            let (get, grid, barrier) = (&get, &grid, &barrier);
            s.spawn(move || {
                for _ in 0..TEAM_SWEEPS {
                    for colour in 0..2 {
                        for row in lo..hi {
                            let first = 1 + (row + colour + 1) % 2;
                            for i in (row * N + first..row * N + N - 1).step_by(2) {
                                let around = get(i - N) + get(i + N) + get(i - 1) + get(i + 1);
                                let relaxed = 1.25 * 0.25 * around - 0.25 * get(i);
                                grid[i].store(relaxed.to_bits(), Ordering::Relaxed);
                            }
                        }
                        barrier.wait();
                    }
                }
            });
        }
    });
    black_box(get(N * N / 2));
    start.elapsed().as_secs_f64()
}

/// The `alu` yardstick: one dependent chain of multiplies in registers.
fn alu_once() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1u64 << 21 {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// One reading of the machine's speed: the median of three of each short
/// kernel, and `team` once where a pass divides by it.
#[derive(Debug, Clone, Copy)]
struct Speed {
    page_s: f64,
    sweep_s: f64,
    alu_s: f64,
    team_s: Option<f64>,
}

impl Speed {
    /// How many times slower than nominal this reading says work of `kind`
    /// runs.
    fn slowdown(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Page => self.page_s / PAGE_NOMINAL_S,
            Kind::Sweep => self.sweep_s / SWEEP_NOMINAL_S,
            Kind::Alu => self.alu_s / ALU_NOMINAL_S,
            Kind::Team => {
                self.team_s.expect("team is read where it is divided by") / TEAM_NOMINAL_S
            }
        }
    }
}

/// `seconds[i]` at nominal machine speed: each sample divided by the
/// slowdown read next to it, and the median of that. An absolute time that
/// can be held against a bound on a host whose speed wanders; the raw
/// median is reported beside it.
fn normalised(seconds: &[f64], speeds: &[Speed], kind: Kind) -> f64 {
    let slowdowns: Vec<f64> = speeds.iter().map(|s| s.slowdown(kind)).collect();
    crate::stats::per_round_ratio(seconds, &slowdowns)
}

fn derive_seed(seed: u64, input: &str) -> u64 {
    let mut x = input.bytes().fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub const ONE_CORE: &str = "fewer than 2 cores available: a 2-way arm would measure time slicing";

/// Decides after each round whether another one fits.
struct Rounds {
    start: Instant,
    budget: f64,
    floor: usize,
    fixed: Option<usize>,
    done: usize,
}

/// Does another round go, after `done` rounds in `elapsed` seconds? Three
/// always do; up to `floor` as long as they overrun `budget` by no more than
/// [`OVERRUN`]; beyond that, as long as they fit.
fn admits(done: usize, elapsed: f64, budget: f64, floor: usize) -> bool {
    let next = elapsed / done.max(1) as f64;
    let fits = |budget: f64| elapsed + next <= budget;
    done < MIN_ROUNDS_OF_MANY_SAVES
        || fits(budget)
        || (done < floor && fits(budget * (1.0 + OVERRUN)))
}

impl Rounds {
    /// Call before each round; counts the round it admits.
    fn another(&mut self) -> bool {
        let go = match self.fixed {
            Some(n) => self.done < n,
            None => {
                let elapsed = self.start.elapsed().as_secs_f64();
                admits(self.done, elapsed, self.budget, self.floor)
            }
        };
        if go {
            self.done += 1;
        }
        go
    }

    /// 0-based index of the round in progress.
    fn index(&self) -> usize {
        self.done - 1
    }
}

/// `items` rotated left by `round`, so that no arm always runs first (cold)
/// or last (behind the others' page-cache and allocator state).
fn rotated<T: Copy>(items: &[T], round: usize) -> Vec<T> {
    let mut v = items.to_vec();
    if !v.is_empty() {
        v.rotate_left(round % items.len());
    }
    v
}

/// Run `setup` `reps` times, the yardsticks before each; keep the last
/// fixture and report `setup_s` (at nominal speed) and `setup_raw_s`.
fn timed_setups<F>(
    r: &mut WorkloadReport,
    reps: usize,
    speed: &mut Yardsticks,
    mut setup: impl FnMut() -> Result<F, String>,
) -> Option<F> {
    let (mut times, mut speeds) = (Vec::new(), Vec::new());
    loop {
        speeds.push(speed.read());
        let start = Instant::now();
        let fixture = r.attempt("set-up", setup())?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= reps {
            r.named_value("setup_s", normalised(&times, &speeds, speed.kind));
            r.named_median("setup_raw_s", &times);
            return Some(fixture);
        }
    }
}

/// The yardsticks of a pass: read before every set-up and, to be kept,
/// right before the reference arm of every round.
struct Yardsticks {
    /// What the set-ups are divided by.
    kind: Kind,
    /// What the reference arm is divided by.
    run_kind: Kind,
    /// What `sweep` sweeps, resident from here on.
    grid: Vec<f64>,
    readings: Vec<Speed>,
    /// `team` as read right after the last sample of the reference arm.
    team_after: Option<f64>,
}

impl Yardsticks {
    fn of(kind: Kind) -> Yardsticks {
        Yardsticks::of_two(kind, kind)
    }

    /// Set-ups of one kind, the reference arm of another.
    fn of_two(kind: Kind, run_kind: Kind) -> Yardsticks {
        Yardsticks {
            kind,
            run_kind,
            grid: vec![1.0; SWEEP_ROW * SWEEP_ROW],
            readings: Vec::new(),
            team_after: None,
        }
    }

    fn read(&mut self) -> Speed {
        let three = |kernel: &mut dyn FnMut() -> f64| median(&[kernel(), kernel(), kernel()]);
        Speed {
            page_s: three(&mut page_once),
            sweep_s: three(&mut || sweep_once(&mut self.grid)),
            alu_s: three(&mut alu_once),
            team_s: (self.run_kind == Kind::Team).then(team_once),
        }
    }

    /// Call right before a sample of the reference arm.
    fn take(&mut self) {
        let reading = self.read();
        self.readings.push(reading);
    }

    /// Call right after a sample of a `Team` reference arm: `team` once
    /// more, and the sample is divided by the mean of the reading before it
    /// and the reading after it.
    fn take_after(&mut self) {
        let last = self.readings.last_mut().expect("take() came first");
        if let Some(before) = last.team_s {
            let after = team_once();
            last.team_s = Some((before + after) / 2.0);
            self.team_after = Some(after);
        }
    }

    /// Call instead of `take` before a sample that follows another at once:
    /// the reading after that one is the reading before this one.
    fn take_next(&mut self) {
        let mut reading = *self.readings.last().expect("take() came first");
        reading.team_s = self.team_after;
        self.readings.push(reading);
    }

    /// Report the reference arm, one sample per reading: `run_s` as
    /// measured, `run_norm_s` at nominal machine speed.
    fn report_run(&self, r: &mut WorkloadReport, seconds: &[f64]) {
        r.named_median("run_s", seconds);
        if r.traced {
            r.layer_value("trace.run_s", median(seconds));
        }
        let norm = normalised(seconds, &self.readings, self.run_kind);
        r.named_value("run_norm_s", norm);
        let of = |f: fn(&Speed) -> f64| ms(&self.readings.iter().map(f).collect::<Vec<_>>());
        r.named_median("yardstick_ms", &of(|s| s.page_s));
        r.named_median("yardstick_sweep_ms", &of(|s| s.sweep_s));
        r.named_median("yardstick_alu_ms", &of(|s| s.alu_s));
        if self.run_kind == Kind::Team {
            r.named_median("yardstick_team_ms", &of(|s| s.team_s.unwrap_or(f64::NAN)));
        }
    }
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// Run one workload by name.
pub fn run(workload: &str, env: &Env<'_>) -> Option<WorkloadReport> {
    Some(match workload {
        "sor_compute" => sor::run(env),
        "ckpt_sparse" => ckpt::run(env, ckpt::Dirty::Sparse),
        "ckpt_dense" => ckpt::run(env, ckpt::Dirty::Dense),
        "recover_reshape" => recover::run(env),
        "wire_ckpt" => wire::run(env),
        "smc_task" => smc::run(env),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_moves_every_arm_through_every_place() {
        assert_eq!(rotated(&[1, 2, 3], 0), vec![1, 2, 3]);
        assert_eq!(rotated(&[1, 2, 3], 1), vec![2, 3, 1]);
        assert_eq!(rotated(&[1, 2, 3], 5), vec![3, 1, 2]);
        assert!(rotated::<u8>(&[], 3).is_empty());
    }

    #[test]
    fn quick_passes_make_a_fixed_number_of_rounds() {
        let mut r = Rounds {
            start: Instant::now(),
            budget: 0.0,
            floor: MIN_ROUNDS,
            fixed: Some(2),
            done: 0,
        };
        assert!(r.another() && r.index() == 0);
        assert!(r.another() && r.index() == 1);
        assert!(!r.another());
    }

    #[test]
    fn timed_passes_overrun_for_their_minimum_but_not_without_end() {
        // Rounds of 2 s against 15 s: seven fit, an eighth does not.
        assert!(admits(6, 12.0, 15.0, MIN_ROUNDS));
        assert!(!admits(7, 14.0, 15.0, MIN_ROUNDS));
        // Rounds of 3 s: five fit, two more overrun by less than half.
        assert!(admits(5, 15.0, 15.0, MIN_ROUNDS));
        assert!(admits(6, 18.0, 15.0, MIN_ROUNDS));
        assert!(!admits(7, 21.0, 15.0, MIN_ROUNDS));
        // Rounds of 6 s: three in any case, a fourth would end at 24 s.
        assert!(admits(2, 12.0, 15.0, MIN_ROUNDS));
        assert!(!admits(3, 18.0, 15.0, MIN_ROUNDS));
    }

    #[test]
    fn the_reference_arm_is_reported_raw_and_normalised() {
        let mut speed = Yardsticks::of(Kind::Sweep);
        speed.take();
        speed.take();
        let mut r = WorkloadReport::new("smc_task", true);
        speed.report_run(&mut r, &[2.0, 4.0]);
        assert_eq!(r.value("run_s"), Some(3.0));
        assert_eq!(r.layers["trace.run_s"].value, 3.0);
        assert!(r.value("run_norm_s").unwrap() > 0.0);
    }

    #[test]
    fn normalising_cancels_the_kind_of_slowness_the_work_is_made_of() {
        let reading = |page: f64, alu: f64| Speed {
            page_s: page * PAGE_NOMINAL_S,
            sweep_s: SWEEP_NOMINAL_S,
            alu_s: alu * ALU_NOMINAL_S,
            team_s: None,
        };
        // The second round meets a host 2x slow at paging, as fast as ever
        // at arithmetic.
        let speeds = [reading(1.0, 1.0), reading(2.0, 1.0), reading(1.0, 1.0)];
        let store = normalised(&[3.0, 6.0, 3.0], &speeds, Kind::Page);
        assert!((store - 3.0).abs() < 1e-12, "{store}");
        let compute = normalised(&[3.0, 3.0, 3.0], &speeds, Kind::Alu);
        assert!((compute - 3.0).abs() < 1e-12, "{compute}");
    }

    #[test]
    fn every_yardstick_reads_a_time() {
        let speed = Yardsticks::of_two(Kind::Sweep, Kind::Team).read();
        for kind in [Kind::Page, Kind::Sweep, Kind::Alu, Kind::Team] {
            assert!(speed.slowdown(kind) > 0.0, "{kind:?}");
        }
        assert!(Yardsticks::of(Kind::Sweep).read().team_s.is_none());
    }

    #[test]
    fn a_team_sample_is_divided_by_the_readings_either_side_of_it() {
        let mut speed = Yardsticks::of_two(Kind::Sweep, Kind::Team);
        speed.take();
        let before = speed.readings[0].team_s.unwrap();
        speed.take_after();
        let after = speed.team_after.unwrap();
        assert_eq!(speed.readings[0].team_s, Some((before + after) / 2.0));
        // The next sample starts from the reading that closed this one.
        speed.take_next();
        assert_eq!(speed.readings[1].team_s, Some(after));
        speed.take_after();
        let mut r = WorkloadReport::new("sor_compute", false);
        speed.report_run(&mut r, &[0.2, 0.2]);
        assert!(r.value("run_norm_s").unwrap() > 0.0);
        assert!(r.value("yardstick_team_ms").unwrap() > 0.0);
        // A pass that divides by another kernel never reads `team`.
        let mut other = Yardsticks::of(Kind::Page);
        other.take();
        other.take_after();
        assert!(other.readings[0].team_s.is_none());
    }

    #[test]
    fn seeds_differ_by_input_and_by_run_seed() {
        assert_eq!(derive_seed(1, "sor"), derive_seed(1, "sor"));
        assert_ne!(derive_seed(1, "sor"), derive_seed(1, "smc"));
        assert_ne!(derive_seed(1, "sor"), derive_seed(2, "sor"));
    }

    #[test]
    fn setups_are_timed_as_often_as_promised() {
        let mut r = WorkloadReport::new("smc_task", false);
        let mut calls = 0;
        let mut speed = Yardsticks::of(Kind::Page);
        let last = timed_setups(&mut r, SETUP_REPS, &mut speed, || {
            calls += 1;
            Ok(calls)
        });
        assert_eq!(last, Some(SETUP_REPS));
        assert_eq!(
            r.named["setup_raw_s"].summary.as_ref().unwrap().samples,
            SETUP_REPS
        );
        assert!(r.value("setup_s").unwrap() >= 0.0);
        let failing = || Err::<(), _>("no".to_string());
        assert!(timed_setups(&mut r, 1, &mut speed, failing).is_none());
        assert_eq!(r.ops_failed, 1);
    }
}
