//! Resolution of object nondeterminism.
//!
//! The 2-SA and (n,k)-SA objects are nondeterministic: one operation may
//! have several admissible `(response, next-state)` outcomes. During a
//! concrete run, something must pick one. An [`OutcomeResolver`] is that
//! something: deterministic-first for reproducible tests, seeded-random for
//! randomized testing, or scripted for targeted scenarios. (The explorer
//! does not use a resolver at all — it follows *every* branch.)

use lbsa_core::{ObjId, Pid};
use lbsa_support::rng::SmallRng;
use std::collections::VecDeque;

/// Chooses among the admissible outcomes of a nondeterministic operation.
pub trait OutcomeResolver {
    /// Returns the index of the chosen outcome among the `n` admissible
    /// ones, in the object's outcome order.
    ///
    /// `n` is never zero. Implementations returning an out-of-range index
    /// are clamped by the caller to `n - 1`.
    fn choose(&mut self, pid: Pid, obj: ObjId, n: usize) -> usize;
}

/// Always chooses the first admissible outcome. Fully deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirstOutcome;

impl OutcomeResolver for FirstOutcome {
    fn choose(&mut self, _pid: Pid, _obj: ObjId, _n: usize) -> usize {
        0
    }
}

/// Chooses uniformly at random with a seeded generator (reproducible).
///
/// # Examples
///
/// ```
/// use lbsa_runtime::outcome::RandomOutcome;
/// let r = RandomOutcome::seeded(42);
/// ```
#[derive(Clone, Debug)]
pub struct RandomOutcome {
    rng: SmallRng,
}

impl RandomOutcome {
    /// Creates a resolver from an explicit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        RandomOutcome {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl OutcomeResolver for RandomOutcome {
    fn choose(&mut self, _pid: Pid, _obj: ObjId, n: usize) -> usize {
        self.rng.random_range(0..n)
    }
}

/// Follows a pre-recorded script of choices, then falls back to the first
/// outcome when the script runs out.
///
/// Used to replay a branch found by the explorer inside a concrete system.
#[derive(Clone, Debug, Default)]
pub struct ScriptedOutcome {
    script: VecDeque<usize>,
}

impl ScriptedOutcome {
    /// Creates a resolver that plays back `choices` in order.
    #[must_use]
    pub fn new<I: IntoIterator<Item = usize>>(choices: I) -> Self {
        ScriptedOutcome {
            script: choices.into_iter().collect(),
        }
    }

    /// Number of unconsumed scripted choices.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.script.len()
    }
}

impl OutcomeResolver for ScriptedOutcome {
    fn choose(&mut self, _pid: Pid, _obj: ObjId, n: usize) -> usize {
        self.script.pop_front().unwrap_or(0).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outcome_always_zero() {
        let mut r = FirstOutcome;
        for _ in 0..5 {
            assert_eq!(r.choose(Pid(0), ObjId(0), 3), 0);
        }
    }

    #[test]
    fn random_outcome_is_reproducible_and_in_range() {
        let run = |seed| {
            let mut r = RandomOutcome::seeded(seed);
            (0..20)
                .map(|_| r.choose(Pid(0), ObjId(0), 3))
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the same choices");
        assert!(a.iter().all(|&i| i < 3));
        let c = run(8);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn scripted_outcome_plays_then_falls_back() {
        let mut r = ScriptedOutcome::new([2, 1, 99]);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.choose(Pid(0), ObjId(0), 3), 2);
        assert_eq!(r.choose(Pid(0), ObjId(0), 3), 1);
        // Out-of-range entries clamp.
        assert_eq!(r.choose(Pid(0), ObjId(0), 3), 2);
        // Exhausted script falls back to 0.
        assert_eq!(r.choose(Pid(0), ObjId(0), 3), 0);
        assert_eq!(r.remaining(), 0);
    }
}
