//! Schedulers: the adversarial environment that decides who steps next.
//!
//! In the asynchronous model, an execution is an interleaving of atomic
//! steps chosen by an adversary. A [`Scheduler`] is that adversary. The
//! impossibility proofs of the paper are, operationally, statements about
//! what a sufficiently clever scheduler can do; `lbsa-explorer` provides the
//! cleverest one (exhaustive / bivalency-preserving), while this module
//! provides the everyday ones: round-robin, seeded random, scripted, and
//! solo. A [`CrashPlan`] silences processes permanently, modelling crash
//! failures.

use lbsa_core::Pid;
use lbsa_support::rng::SmallRng;
use std::collections::{BTreeSet, VecDeque};

/// Chooses which of the currently-enabled processes takes the next step.
pub trait Scheduler {
    /// Returns the process to step next, or `None` to end the run.
    ///
    /// `enabled` lists the processes that can take a step (running and not
    /// crashed), in increasing pid order; it is never empty when called.
    fn next_pid(&mut self, enabled: &[Pid]) -> Option<Pid>;
}

/// Cycles through processes in pid order, skipping disabled ones.
///
/// Round-robin is a *fair* scheduler: every enabled process is scheduled
/// infinitely often, so it can witness Termination properties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at `Pid(0)`.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}

impl Scheduler for RoundRobin {
    fn next_pid(&mut self, enabled: &[Pid]) -> Option<Pid> {
        // Pick the first enabled pid >= self.next, wrapping around.
        let pid = enabled
            .iter()
            .find(|p| p.index() >= self.next)
            .or_else(|| enabled.first())
            .copied()?;
        self.next = pid.index() + 1;
        Some(pid)
    }
}

/// Chooses uniformly at random among the enabled processes (seeded,
/// reproducible). Random scheduling is fair with probability 1.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from an explicit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn next_pid(&mut self, enabled: &[Pid]) -> Option<Pid> {
        let idx = self.rng.random_range(0..enabled.len());
        Some(enabled[idx])
    }
}

/// Plays back an explicit schedule, then stops.
///
/// If a scripted pid is disabled when its turn comes, it is skipped.
/// Used to replay executions found by the explorer or the adversary.
#[derive(Clone, Debug, Default)]
pub struct Scripted {
    script: VecDeque<Pid>,
}

impl Scripted {
    /// Creates a scheduler that plays back `pids` in order.
    #[must_use]
    pub fn new<I: IntoIterator<Item = Pid>>(pids: I) -> Self {
        Scripted {
            script: pids.into_iter().collect(),
        }
    }

    /// Number of unconsumed scripted steps.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.script.len()
    }
}

impl Scheduler for Scripted {
    fn next_pid(&mut self, enabled: &[Pid]) -> Option<Pid> {
        while let Some(pid) = self.script.pop_front() {
            if enabled.contains(&pid) {
                return Some(pid);
            }
        }
        None
    }
}

/// Runs a single process solo — the schedule used by the paper's
/// Termination clauses ("if a process takes infinitely many steps solo…").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Solo {
    pid: Pid,
}

impl Solo {
    /// Creates a solo scheduler for `pid`.
    #[must_use]
    pub fn new(pid: Pid) -> Self {
        Solo { pid }
    }
}

impl Scheduler for Solo {
    fn next_pid(&mut self, enabled: &[Pid]) -> Option<Pid> {
        enabled.contains(&self.pid).then_some(self.pid)
    }
}

/// A crash-failure plan: `crash(pid, after)` silences `pid` forever once the
/// system has executed `after` total steps.
///
/// # Examples
///
/// ```
/// use lbsa_runtime::scheduler::CrashPlan;
/// use lbsa_core::Pid;
///
/// let mut plan = CrashPlan::new();
/// plan.crash(Pid(1), 3);
/// assert!(!plan.is_crashed(Pid(1), 2));
/// assert!(plan.is_crashed(Pid(1), 3));
/// assert!(!plan.is_crashed(Pid(0), 100));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    crashes: BTreeSet<(usize, Pid)>, // (after-step, pid), so ordered by time
}

impl CrashPlan {
    /// An empty plan: no process ever crashes.
    #[must_use]
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// Schedules `pid` to crash once `after` steps have executed
    /// (`after = 0` crashes it before it takes any step).
    pub fn crash(&mut self, pid: Pid, after: usize) -> &mut Self {
        self.crashes.insert((after, pid));
        self
    }

    /// Returns `true` if `pid` is crashed at global step count `step`.
    #[must_use]
    pub fn is_crashed(&self, pid: Pid, step: usize) -> bool {
        self.crashes
            .iter()
            .take_while(|&&(after, _)| after <= step)
            .any(|&(_, p)| p == pid)
    }

    /// The planned crashes as `(after, pid)`, in increasing `after`.
    pub(crate) fn in_order(&self) -> impl Iterator<Item = (usize, Pid)> + '_ {
        self.crashes.iter().copied()
    }

    /// Returns `true` if the plan crashes no one.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(v: &[usize]) -> Vec<Pid> {
        v.iter().map(|&i| Pid(i)).collect()
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut s = RoundRobin::new();
        let enabled = pids(&[0, 1, 2]);
        let picks: Vec<usize> = (0..6)
            .map(|_| s.next_pid(&enabled).unwrap().index())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let mut s = RoundRobin::new();
        assert_eq!(s.next_pid(&pids(&[0, 2])).unwrap(), Pid(0));
        assert_eq!(s.next_pid(&pids(&[0, 2])).unwrap(), Pid(2));
        assert_eq!(s.next_pid(&pids(&[0, 2])).unwrap(), Pid(0));
        // Only pid 1 enabled: wraps to it even though next = 1.
        assert_eq!(s.next_pid(&pids(&[1])).unwrap(), Pid(1));
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let enabled = pids(&[0, 1, 2, 3]);
        let run = |seed| {
            let mut s = RandomScheduler::seeded(seed);
            (0..30)
                .map(|_| s.next_pid(&enabled).unwrap().index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn scripted_skips_disabled_and_ends() {
        let mut s = Scripted::new(pids(&[1, 0, 1]));
        assert_eq!(s.next_pid(&pids(&[0, 1])), Some(Pid(1)));
        // Pid 0 is disabled now; script entry 0 is skipped, next entry 1 used.
        assert_eq!(s.next_pid(&pids(&[1])), Some(Pid(1)));
        assert_eq!(s.next_pid(&pids(&[1])), None, "script exhausted");
    }

    #[test]
    fn solo_runs_only_its_process() {
        let mut s = Solo::new(Pid(2));
        assert_eq!(s.next_pid(&pids(&[0, 1, 2])), Some(Pid(2)));
        assert_eq!(s.next_pid(&pids(&[0, 1])), None);
    }

    #[test]
    fn crash_plan_boundaries() {
        let mut plan = CrashPlan::new();
        assert!(plan.is_empty());
        plan.crash(Pid(0), 0).crash(Pid(2), 5);
        assert!(!plan.is_empty());
        assert!(plan.is_crashed(Pid(0), 0));
        assert!(!plan.is_crashed(Pid(2), 4));
        assert!(plan.is_crashed(Pid(2), 5));
        assert!(plan.is_crashed(Pid(2), 6));
        assert!(!plan.is_crashed(Pid(1), 1000));
    }
}
