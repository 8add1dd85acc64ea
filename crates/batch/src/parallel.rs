//! Thread fan-out policy for the parallel kernels.

use serde::{Deserialize, Serialize};

/// How many worker threads a parallel kernel may fan out over.
///
/// Every kernel that accepts a `Parallelism` guarantees **bit-identical**
/// results across all settings: work is split into disjoint, contiguous
/// index chunks, each unit of work is independent, and any cross-unit
/// reduction is performed sequentially in index order after the workers
/// join. The setting therefore only trades wall-clock for cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Parallelism {
    /// Run inline on the calling thread (no spawns at all).
    Sequential,
    /// Use [`std::thread::available_parallelism`] (falling back to 1 when
    /// the platform cannot report it). The default.
    #[default]
    Auto,
    /// Use exactly this many workers (`0` is treated as `1`).
    Fixed(usize),
}

impl Parallelism {
    /// The number of workers this policy resolves to, before clamping to
    /// the amount of available work.
    pub fn thread_count(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Parallelism::Fixed(n) => (*n).max(1),
        }
    }

    /// The number of workers to use for `items` independent units of work:
    /// [`Parallelism::thread_count`] clamped to `items` (never below 1, so
    /// degenerate inputs still run inline).
    pub fn threads_for(&self, items: usize) -> usize {
        self.thread_count().min(items.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_thread() {
        assert_eq!(Parallelism::Sequential.thread_count(), 1);
        assert_eq!(Parallelism::Sequential.threads_for(100), 1);
    }

    #[test]
    fn fixed_clamps_to_work_and_floor_one() {
        assert_eq!(Parallelism::Fixed(4).threads_for(100), 4);
        assert_eq!(Parallelism::Fixed(4).threads_for(2), 2);
        assert_eq!(Parallelism::Fixed(0).thread_count(), 1);
        assert_eq!(Parallelism::Fixed(4).threads_for(0), 1);
    }

    #[test]
    fn auto_reports_at_least_one() {
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert!(Parallelism::default() == Parallelism::Auto);
    }
}
