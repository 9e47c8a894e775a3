//! Scaled experiment clock.
//!
//! The prototype executes a scenario defined in *simulated seconds* (job
//! arrivals at 0.51 s, 15.03 s, ... as in Table 1) in compressed wall-clock
//! time. A [`TimeScale`] of 0.002 runs 1 simulated second in 2 wall
//! milliseconds.

use std::time::{Duration, Instant};

/// Wall-seconds per simulated second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale(f64);

impl TimeScale {
    /// Creates a scale; must be positive and finite.
    pub fn new(wall_per_sim: f64) -> Self {
        assert!(
            wall_per_sim.is_finite() && wall_per_sim > 0.0,
            "time scale must be positive, got {wall_per_sim}"
        );
        Self(wall_per_sim)
    }

    /// Real time (1 sim second = 1 wall second).
    pub fn real_time() -> Self {
        Self(1.0)
    }

    /// Default test scale: 1 sim second = 2 wall milliseconds.
    pub fn fast() -> Self {
        Self(0.002)
    }

    /// Converts a simulated duration to wall time.
    pub fn to_wall(self, sim_s: f64) -> Duration {
        Duration::from_secs_f64((sim_s * self.0).max(0.0))
    }

    /// Converts elapsed wall time to simulated seconds.
    pub fn to_sim(self, wall: Duration) -> f64 {
        wall.as_secs_f64() / self.0
    }
}

/// A monotonic clock reporting simulated time since construction.
#[derive(Debug, Clone)]
pub struct ScaledClock {
    start: Instant,
    scale: TimeScale,
}

impl ScaledClock {
    /// Starts the clock now.
    pub fn start(scale: TimeScale) -> Self {
        Self {
            start: Instant::now(),
            scale,
        }
    }

    /// Simulated seconds elapsed since start.
    pub fn now_sim(&self) -> f64 {
        self.scale.to_sim(self.start.elapsed())
    }

    /// The configured scale.
    pub fn scale(&self) -> TimeScale {
        self.scale
    }

    /// Sleeps until the given simulated timestamp (no-op if already past).
    pub fn sleep_until_sim(&self, sim_s: f64) {
        let target = self.scale.to_wall(sim_s);
        let elapsed = self.start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let s = TimeScale::new(0.01);
        assert_eq!(s.to_wall(100.0), Duration::from_secs_f64(1.0));
        assert!((s.to_sim(Duration::from_millis(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clock_advances_in_sim_time() {
        let c = ScaledClock::start(TimeScale::new(0.001));
        std::thread::sleep(Duration::from_millis(5));
        let t = c.now_sim();
        assert!(t >= 4.0, "got {t}");
    }

    #[test]
    fn sleep_until_sim_reaches_target() {
        let c = ScaledClock::start(TimeScale::new(0.001));
        c.sleep_until_sim(8.0);
        assert!(c.now_sim() >= 8.0);
        // Already-past targets return immediately.
        let before = Instant::now();
        c.sleep_until_sim(1.0);
        assert!(before.elapsed() < Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        TimeScale::new(0.0);
    }
}
