//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual CPUs of a shared machine. Other
//! tenants slow this process by 10-30% for tens of seconds at a time; the
//! slowdown is ordinary user time, not steal time or page faults, so no
//! CPU clock leaves it out. In one 150-second run of a single seed, the
//! records/s of consecutive 30-second windows spread by 5-12% (quartile
//! distance over median); two runs of one seed minutes apart differed by
//! 39%, and ten seeds in a row spread by up to 26%.
//!
//! A fixed kernel timed between batches slows with the host. Throughput
//! multiplied by the kernel's mean time over the same run — records per
//! calibration — spread by 2-3% over those windows on every workload. The
//! kernel has noise of its own: when the host was quiet, six repeated
//! 15-second runs of one seed spread by 1-6% uncalibrated and by 2-4%
//! calibrated. The kernel is the benchmark's own and calls nothing in the
//! simulator, so a change to the simulator moves the throughput and not
//! the calibration.
//!
//! The kernel mixes the two kinds of work the simulator's host time goes
//! to: a dependent random walk over a 4 MiB ring (cache and memory
//! latency) and a 16-way LRU set-associative tag array of 1 MiB driven by
//! a stream with short runs of locality (branchy, cache-resident work).
//! Either half alone spread by up to 4.3% on some workload over the
//! windows above; the two together by at most 2.9%. Before each batch the
//! kernel runs for [`SHARE`] of the previous batch's time, so that
//! workloads with few long batches (`package64-resume`, ~9 a run) get as
//! many samples per second as the others.

use std::hint::black_box;
use std::time::Instant;

/// Ring entries (`u32`): 4 MiB.
const RING_LEN: usize = 1 << 20;
/// Dependent loads per calibration.
const WALK_STEPS: usize = 100_000;
/// Sets and ways of the tag array: 8192 × 16 × 8 B = 1 MiB.
const SETS: usize = 8192;
const WAYS: usize = 16;
/// Tag-array accesses per calibration.
const TAG_ACCESSES: u64 = 400_000;
/// Calibration time before a batch, as a share of the previous batch's.
pub const SHARE: f64 = 0.05;

/// The calibration kernel's state, built once per run.
pub struct Calibration {
    ring: Vec<u32>,
    tags: Vec<u64>,
    /// Seconds of every timed kernel run so far.
    samples: Vec<f64>,
}

impl Calibration {
    /// Build the ring (one random cycle through every entry) and an empty
    /// tag array. Both are the same on every run.
    pub fn new() -> Calibration {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut order: Vec<u32> = (0..RING_LEN as u32).collect();
        for i in (1..RING_LEN).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut ring = vec![0u32; RING_LEN];
        for i in 0..RING_LEN {
            ring[order[i] as usize] = order[(i + 1) % RING_LEN];
        }
        Calibration {
            ring,
            tags: vec![0; SETS * WAYS],
            samples: Vec::new(),
        }
    }

    /// Run the kernel once untimed, to bring its data back into the caches
    /// the batch evicted it from, then time it at least once and until the
    /// timed runs took `budget_s`, keeping each run's time as a sample.
    /// Every sample is thus a run with its data cached. How much of it a
    /// batch leaves cached depends on the batch's footprint, so a first,
    /// cold run would make the calibration depend on the simulator.
    pub fn measure_for(&mut self, budget_s: f64) {
        self.kernel();
        let mut spent = 0.0;
        while spent == 0.0 || spent < budget_s {
            let start = Instant::now();
            self.kernel();
            let secs = start.elapsed().as_secs_f64();
            self.samples.push(secs);
            spent += secs;
        }
    }

    /// Mean seconds per kernel run over every sample, 0 before the first.
    pub fn mean_s(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// One run: the ring walk, then the tag array.
    fn kernel(&mut self) {
        let mut p = 0u32;
        for _ in 0..WALK_STEPS {
            p = self.ring[p as usize];
        }
        black_box(p);
        black_box(self.tag_array());
    }

    /// LRU lookups and fills into the emptied tag array; returns the hit
    /// count.
    fn tag_array(&mut self) -> u64 {
        self.tags.fill(0);
        let mut rng = XorShift(0x1234_5678_9abc_def1);
        let (mut hits, mut base) = (0u64, 0u64);
        for i in 0..TAG_ACCESSES {
            let x = rng.next();
            if i % 1024 == 0 {
                base = x >> 30;
            }
            // One access in four goes far away; the rest walk 64 lines
            // near `base`.
            let line = if x & 3 == 0 { x >> 20 } else { base + (i & 63) };
            let set = (line as usize % SETS) * WAYS;
            let tag = (line / SETS as u64) << 1 | 1;
            let ways = &mut self.tags[set..set + WAYS];
            match ways.iter().position(|&w| w == tag) {
                Some(way) => {
                    hits += 1;
                    ways.copy_within(0..way, 1);
                }
                None => ways.copy_within(0..WAYS - 1, 1),
            }
            ways[0] = tag;
        }
        hits
    }
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle_through_every_entry() {
        let c = Calibration::new();
        let (mut p, mut steps) = (0u32, 0usize);
        loop {
            p = c.ring[p as usize];
            steps += 1;
            if p == 0 {
                break;
            }
            assert!(steps < RING_LEN, "ring has a shorter cycle");
        }
        assert_eq!(steps, RING_LEN);
    }

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut c = Calibration::new();
        let hits = c.tag_array();
        assert!(hits > 0 && hits < TAG_ACCESSES);
        assert_eq!(c.tag_array(), hits);
        assert_eq!(c.mean_s(), 0.0);
        c.measure_for(0.0);
        assert_eq!(c.samples(), 1);
        c.measure_for(0.2);
        assert!(c.samples() > 2);
        assert!(c.mean_s() > 0.0);
    }
}
