//! The host-speed yardstick: a fixed computation of the load generator's
//! own, timed in the gaps of a closed loop, that says how fast the shared
//! host runs at the moment.
//!
//! On a shared host the same code runs up to 2× slower for minutes at a
//! time, and up to 30% slower for seconds, so raw times of two runs of the
//! same program differ by more than any useful regression bound. A work
//! phase is cut into windows of about half a second. The yardstick takes
//! a few percent of each window, at cycle boundaries of the closed loop
//! while its server is idle, and every op and every cycle is scaled by
//! `REFERENCE_MS / mean pass around its window`: the times read as if the
//! host had run at the reference speed throughout. The computation is the
//! benchmark's own code and calls nothing in the program, so a faster
//! program reads faster and a faster host does not.

use crate::stats::{median, ratio};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Points and dimension of the yardstick's problem: 256 KB of
/// coordinates, resident in L2 like the solver's working sets.
const POINTS: usize = 4096;
const DIM: usize = 8;
/// Weiszfeld iterations per pass.
const ITERATIONS: usize = 16;
/// Mean pass time on a quiet reference host (2 shared x86-64 CPUs).
pub const REFERENCE_MS: f64 = 0.5;
/// Share of a work phase the yardstick takes.
const DUTY: f64 = 0.05;
/// A window closes at the first cycle boundary this long after it opened.
const WINDOW: Duration = Duration::from_millis(500);

/// Fixed coordinates from a fixed linear congruential generator: the
/// yardstick does the same work in every run, whatever the seed.
fn coordinates() -> Vec<f64> {
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    (0..POINTS * DIM)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// One pass: Weiszfeld iterations toward the geometric median of the
/// points, the kind of work the solver's bounds do.
fn pass(coords: &[f64]) -> f64 {
    let mut center = [0.5f64; DIM];
    for _ in 0..ITERATIONS {
        let mut num = [0.0f64; DIM];
        let mut den = 0.0;
        for p in coords.chunks_exact(DIM) {
            let mut d2 = 0.0;
            for j in 0..DIM {
                let t = p[j] - center[j];
                d2 += t * t;
            }
            let w = 1.0 / (d2.sqrt() + 1e-12);
            for j in 0..DIM {
                num[j] += w * p[j];
            }
            den += w;
        }
        for j in 0..DIM {
            center[j] = num[j] / den;
        }
    }
    center.iter().sum()
}

/// `measured` scaled from a host whose mean pass took `pass_ms` to the
/// reference host.
pub fn to_reference(measured: f64, pass_ms: f64) -> f64 {
    if pass_ms > 0.0 {
        measured * REFERENCE_MS / pass_ms
    } else {
        measured
    }
}

/// Passes timed back to back: their count and total time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Passes {
    pub count: usize,
    pub busy: Duration,
}

impl Passes {
    /// The mean pass: unlike the median, it also counts the passes a
    /// preempted CPU stretched, as it stretches the server's ops.
    pub fn mean_ms(&self) -> f64 {
        ratio(self.busy.as_secs_f64() * 1e3, self.count as f64)
    }

    pub fn add(&mut self, other: Passes) {
        self.count += other.count;
        self.busy += other.busy;
    }
}

/// The yardstick's fixed input.
pub struct Coords(Vec<f64>);

impl Coords {
    pub fn new() -> Coords {
        Coords(coordinates())
    }

    /// Times `count` passes now.
    pub fn measure(&self, count: usize) -> Passes {
        let t = Instant::now();
        for _ in 0..count {
            black_box(pass(black_box(&self.0)));
        }
        Passes {
            count,
            busy: t.elapsed(),
        }
    }
}

/// One closed window of a load connection: the factor that takes a time
/// measured in it to the reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Mean yardstick pass over the window and the next one, so that the
    /// passes on both sides of each op count.
    pub pass_ms: f64,
}

impl Window {
    pub fn scale(&self) -> f64 {
        to_reference(1.0, self.pass_ms)
    }
}

/// One cycle of a closed loop: the ops between two cycle boundaries.
#[derive(Clone, Copy, Debug)]
pub struct Cycle {
    pub ops: usize,
    /// Wall time from the end of one boundary's passes to the next boundary.
    pub wall_s: f64,
    /// The window it ran in.
    pub window: usize,
}

/// The yardstick of one load connection: its passes, cut into windows,
/// and the cycles they bracket.
pub struct Yardstick {
    coords: Coords,
    /// The passes of each closed window.
    passes: Vec<Passes>,
    windows: Vec<Window>,
    cycles: Vec<Cycle>,
    started: Instant,
    opened: Instant,
    /// When the running cycle started, and its ops so far.
    cycle: Option<Instant>,
    ops: usize,
    /// Passes of the open window, and of the whole phase.
    open: Passes,
    total: Passes,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick::new()
    }
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let now = Instant::now();
        Yardstick {
            coords: Coords::new(),
            passes: Vec::new(),
            windows: Vec::new(),
            cycles: Vec::new(),
            started: now,
            opened: now,
            cycle: None,
            ops: 0,
            open: Passes::default(),
            total: Passes::default(),
        }
    }

    /// Called at each cycle boundary of the loop: ends the running cycle,
    /// closes the open window once it has run its length, then times
    /// passes until the yardstick has had its share of the phase, and at
    /// least one in each window.
    pub fn tick(&mut self) {
        self.end_cycle();
        if self.opened.elapsed() >= WINDOW {
            self.close();
        }
        while self.open.count == 0 || self.total.busy < self.started.elapsed().mul_f64(DUTY) {
            self.pass();
        }
        self.cycle = Some(Instant::now());
    }

    fn pass(&mut self) {
        let p = self.coords.measure(1);
        self.open.add(p);
        self.total.add(p);
    }

    fn end_cycle(&mut self) {
        if let Some(started) = self.cycle.take() {
            self.cycles.push(Cycle {
                ops: self.ops,
                wall_s: started.elapsed().as_secs_f64(),
                window: self.passes.len(),
            });
        }
        self.ops = 0;
    }

    /// Counts one op into the running cycle and returns its window's index.
    pub fn op(&mut self) -> usize {
        self.ops += 1;
        self.passes.len()
    }

    /// Ends the last cycle and window at the end of the phase, and smooths
    /// each window's pass over the next window's passes.
    pub fn finish(&mut self) {
        self.end_cycle();
        self.close();
        self.windows = (0..self.passes.len())
            .map(|i| {
                let mut p = self.passes[i];
                if let Some(&next) = self.passes.get(i + 1) {
                    p.add(next);
                }
                Window {
                    pass_ms: p.mean_ms(),
                }
            })
            .collect();
    }

    fn close(&mut self) {
        if self.open.count == 0 {
            self.pass();
        }
        self.passes.push(self.open);
        self.opened = Instant::now();
        self.open = Passes::default();
    }

    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Every pass of the phase.
    pub fn total(&self) -> Passes {
        self.total
    }

    /// Appends another connection's windows and cycles; returns the
    /// offset its window indices move by.
    pub fn extend(&mut self, other: Yardstick) -> usize {
        let offset = self.windows.len();
        self.windows.extend(other.windows);
        self.cycles.extend(other.cycles.into_iter().map(|c| Cycle {
            window: c.window + offset,
            ..c
        }));
        self.total.add(other.total);
        offset
    }

    /// Throughput at the reference speed: the ops of a cycle over its time
    /// at the reference speed, median over the cycles, times the number
    /// of connections that ran side by side. The median keeps a stall of
    /// the host, which the yardstick cannot see coming, out of the figure.
    pub fn ops_per_s(&self, connections: usize) -> f64 {
        let rates: Vec<f64> = self
            .cycles
            .iter()
            .map(|c| ratio(c.ops as f64, c.wall_s * self.windows[c.window].scale()))
            .collect();
        median(&rates) * connections as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_deterministic() {
        let coords = coordinates();
        assert_eq!(coords.len(), POINTS * DIM);
        assert_eq!(pass(&coords).to_bits(), pass(&coordinates()).to_bits());
    }

    #[test]
    fn scaling_maps_the_reference_pass_to_itself() {
        assert_eq!(to_reference(7.0, REFERENCE_MS), 7.0);
        // A host twice as slow as the reference halves every time.
        assert_eq!(to_reference(8.0, 2.0 * REFERENCE_MS), 4.0);
        assert_eq!(to_reference(3.0, 0.0), 3.0);
        let slow = Window {
            pass_ms: 2.0 * REFERENCE_MS,
        };
        assert!((slow.scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_the_median_cycle_at_the_reference_speed() {
        let mut y = Yardstick::new();
        y.windows = vec![
            Window {
                pass_ms: REFERENCE_MS,
            },
            Window {
                pass_ms: 2.0 * REFERENCE_MS,
            },
        ];
        let cycle = |ops, wall_s, window| Cycle {
            ops,
            wall_s,
            window,
        };
        // 100/s, 100/s once scaled from a host twice as slow, and a stall.
        y.cycles = vec![cycle(5, 0.05, 0), cycle(5, 0.1, 1), cycle(5, 5.0, 0)];
        assert!((y.ops_per_s(1) - 100.0).abs() < 1e-9);
        assert!((y.ops_per_s(2) - 200.0).abs() < 1e-9);
        assert_eq!(Yardstick::new().ops_per_s(1), 0.0);
    }

    #[test]
    fn cycles_and_windows_follow_the_ticks() {
        let mut y = Yardstick::new();
        y.tick();
        assert_eq!(y.op(), 0);
        assert_eq!(y.op(), 0);
        std::thread::sleep(WINDOW + Duration::from_millis(100));
        y.tick();
        assert_eq!(y.op(), 1);
        y.finish();
        assert_eq!(y.windows().len(), 2);
        let (c0, c1) = (y.cycles[0], y.cycles[1]);
        assert_eq!((c0.ops, c0.window), (2, 0));
        assert_eq!((c1.ops, c1.window), (1, 1));
        assert!(c0.wall_s >= WINDOW.as_secs_f64());
        let (p0, p1) = (y.passes[0], y.passes[1]);
        let smoothed = (p0.busy + p1.busy).as_secs_f64() * 1e3 / (p0.count + p1.count) as f64;
        assert!((y.windows()[0].pass_ms - smoothed).abs() < 1e-9);
        assert!((y.windows()[1].pass_ms - p1.mean_ms()).abs() < 1e-9);
        let busy = y.total().busy.as_secs_f64();
        let elapsed = WINDOW.as_secs_f64() + 0.1;
        assert!(
            busy >= DUTY * elapsed && busy <= DUTY * elapsed + 0.05,
            "{busy}"
        );
    }
}
