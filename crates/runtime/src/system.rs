//! The [`System`]: shared objects + processes, executed one atomic step at
//! a time.

use crate::error::RuntimeError;
use crate::kernel::StepKernel;
use crate::outcome::OutcomeResolver;
use crate::process::{ProcStatus, Protocol};
use crate::scheduler::{CrashPlan, Scheduler};
use crate::trace::{Trace, TraceEvent};
use lbsa_core::spec::ObjectSpec;
use lbsa_core::{AnyObject, AnyState, Pid, Value};
use lbsa_support::json::Json;
use lbsa_support::obs::Tracer;

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEnd {
    /// No process is enabled any more: everyone decided, aborted, halted, or
    /// crashed.
    Quiescent,
    /// The step budget was exhausted with processes still enabled.
    MaxSteps,
    /// The scheduler declined to schedule anyone.
    SchedulerStopped,
}

impl RunEnd {
    /// A short machine-readable tag (used by trace events and reports).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            RunEnd::Quiescent => "quiescent",
            RunEnd::MaxSteps => "max-steps",
            RunEnd::SchedulerStopped => "scheduler-stopped",
        }
    }
}

/// Summary of a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Total number of atomic steps executed.
    pub steps: usize,
    /// Why the run ended.
    pub end: RunEnd,
    /// Each process's decision, if it decided.
    pub decisions: Vec<Option<Value>>,
    /// Pids that aborted.
    pub aborted: Vec<Pid>,
    /// Pids that crashed.
    pub crashed: Vec<Pid>,
}

impl RunResult {
    /// Returns `true` if every process decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// The set of distinct decided values, sorted.
    #[must_use]
    pub fn distinct_decisions(&self) -> Vec<Value> {
        let mut vs: Vec<Value> = self.decisions.iter().flatten().copied().collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Returns `true` if every non-crashed process decided or aborted (i.e.
    /// the run reached a terminal configuration rather than running out of
    /// budget).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.end == RunEnd::Quiescent
    }
}

/// A shared-memory system: a protocol, its processes, and the objects they
/// share.
///
/// The `System` owns the mutable execution state (object states, process
/// statuses, the trace); the protocol and object specifications are borrowed
/// immutably, so many systems can share them (the explorer clones cheap
/// snapshots of the mutable part only).
#[derive(Debug)]
pub struct System<'a, P: Protocol> {
    kernel: StepKernel<'a, P>,
    object_states: Vec<AnyState>,
    statuses: Vec<ProcStatus<P::LocalState>>,
    /// The pids whose status is `Running`, ascending. Only
    /// [`System::step_pid`] and [`System::crash`] change a status, and both
    /// keep this in step, so the run loop hands it to the scheduler as is.
    enabled: Vec<Pid>,
    trace: Trace,
    steps: usize,
    record_trace: bool,
    tracer: Tracer,
}

impl<'a, P: Protocol> System<'a, P> {
    /// Creates a system in its initial configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoProcesses`] if the protocol declares zero
    /// processes.
    pub fn new(protocol: &'a P, objects: &'a [AnyObject]) -> Result<Self, RuntimeError> {
        let n = protocol.num_processes();
        if n == 0 {
            return Err(RuntimeError::NoProcesses);
        }
        Ok(System {
            kernel: StepKernel::new(protocol, objects),
            object_states: objects.iter().map(ObjectSpec::initial_state).collect(),
            statuses: (0..n)
                .map(|i| ProcStatus::Running(protocol.init(Pid(i))))
                .collect(),
            enabled: (0..n).map(Pid).collect(),
            trace: Trace::new(),
            steps: 0,
            record_trace: true,
            tracer: Tracer::disabled(),
        })
    }

    /// Disables trace recording (for long benchmark runs where the trace
    /// would dominate memory).
    pub fn set_record_trace(&mut self, record: bool) {
        self.record_trace = record;
    }

    /// Routes `run.begin`/`run.end` observability events to `tracer`. This
    /// is the span-level tracing of [`lbsa_support::obs`] — distinct from
    /// the object-level [`System::trace`], which records the execution
    /// itself. Disabled by default.
    pub fn set_trace(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The number of processes.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.statuses.len()
    }

    /// The protocol driving this system.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.kernel.protocol()
    }

    /// Current status of each process.
    #[must_use]
    pub fn statuses(&self) -> &[ProcStatus<P::LocalState>] {
        &self.statuses
    }

    /// Current state of each object.
    #[must_use]
    pub fn object_states(&self) -> &[AnyState] {
        &self.object_states
    }

    /// The decision of `pid`, if it has decided.
    #[must_use]
    pub fn decision(&self, pid: Pid) -> Option<Value> {
        self.statuses
            .get(pid.index())
            .and_then(ProcStatus::decision)
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total atomic steps executed so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The pids currently able to take a step, in increasing order.
    #[must_use]
    pub fn enabled_pids(&self) -> &[Pid] {
        &self.enabled
    }

    /// Drops `pid`, which just stopped running, from the enabled set.
    fn disable(&mut self, pid: Pid) {
        if let Ok(at) = self.enabled.binary_search(&pid) {
            self.enabled.remove(at);
        }
    }

    /// Marks `pid` as crashed. A crashed process never steps again.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PidOutOfRange`] for an unknown pid. Crashing
    /// a process that already decided/halted is a no-op (its output stands).
    pub fn crash(&mut self, pid: Pid) -> Result<(), RuntimeError> {
        let len = self.statuses.len();
        let status = self
            .statuses
            .get_mut(pid.index())
            .ok_or(RuntimeError::PidOutOfRange { pid, len })?;
        if status.is_running() {
            *status = ProcStatus::Crashed;
            self.disable(pid);
        }
        Ok(())
    }

    /// Executes one atomic step of `pid`: applies its pending operation and
    /// feeds the response to the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ProcessNotRunning`] if `pid` cannot step, and
    /// propagates specification and range errors.
    pub fn step_pid<R: OutcomeResolver>(
        &mut self,
        pid: Pid,
        resolver: &mut R,
    ) -> Result<(), RuntimeError> {
        let step = self
            .kernel
            .begin(&self.object_states, &self.statuses, pid, None)?;
        let ((obj, op), n) = (step.pending_op(), step.outcome_count());
        // Consult the resolver only on a real choice, so seeded runs draw
        // from the RNG exactly when an object branches.
        let chosen = if n == 1 {
            0
        } else {
            resolver.choose(pid, obj, n).min(n - 1)
        };
        let t = step.take(chosen)?;
        self.object_states[obj.index()] = t.obj_state;
        if !t.status.is_running() {
            self.disable(pid);
        }
        self.statuses[pid.index()] = t.status;
        if self.record_trace {
            self.trace.push(TraceEvent {
                step: self.steps,
                pid,
                obj,
                op,
                response: t.response,
                outcome: t.outcome,
            });
        }
        self.steps += 1;
        Ok(())
    }

    /// Runs under `scheduler`, resolving object nondeterminism with
    /// `resolver`, for at most `max_steps` atomic steps.
    ///
    /// # Errors
    ///
    /// Propagates step errors (spec violations, range errors). Scheduling a
    /// disabled process is prevented by construction, not an error.
    pub fn run<S: Scheduler, R: OutcomeResolver>(
        &mut self,
        scheduler: &mut S,
        resolver: &mut R,
        max_steps: usize,
    ) -> Result<RunResult, RuntimeError> {
        self.run_with_crashes(scheduler, resolver, &CrashPlan::new(), max_steps)
    }

    /// Like [`System::run`], additionally applying a [`CrashPlan`]: at the
    /// top of every iteration, each planned `(pid, after)` with
    /// `after <= steps` crashes `pid` if it is still running. Entries are
    /// walked once, in order of `after`; pids outside the system are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_with_crashes<S: Scheduler, R: OutcomeResolver>(
        &mut self,
        scheduler: &mut S,
        resolver: &mut R,
        crashes: &CrashPlan,
        max_steps: usize,
    ) -> Result<RunResult, RuntimeError> {
        self.tracer.emit_with("run.begin", || {
            Json::object()
                .set("processes", self.statuses.len())
                .set("max_steps", max_steps)
                .set("at_step", self.steps)
        });
        let n = self.statuses.len();
        let mut due = crashes
            .in_order()
            .filter(|&(_, pid)| pid.index() < n)
            .peekable();
        let end = loop {
            while let Some((_, pid)) = due.next_if(|&(after, _)| after <= self.steps) {
                self.crash(pid)?;
            }
            if self.enabled.is_empty() {
                break RunEnd::Quiescent;
            }
            if self.steps >= max_steps {
                break RunEnd::MaxSteps;
            }
            let Some(pid) = scheduler.next_pid(&self.enabled) else {
                break RunEnd::SchedulerStopped;
            };
            self.step_pid(pid, resolver)?;
        };
        let result = self.result(end);
        self.tracer.emit_with("run.end", || {
            Json::object()
                .set("end", end.tag())
                .set("steps", result.steps)
                .set(
                    "decided",
                    result.decisions.iter().filter(|d| d.is_some()).count(),
                )
                .set("aborted", result.aborted.len())
                .set("crashed", result.crashed.len())
        });
        Ok(result)
    }

    /// The outcome of a run that ended with `end`, read off the current
    /// process statuses.
    pub(crate) fn result(&self, end: RunEnd) -> RunResult {
        RunResult {
            steps: self.steps,
            end,
            decisions: self.statuses.iter().map(ProcStatus::decision).collect(),
            aborted: self
                .statuses
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ProcStatus::Aborted))
                .map(|(i, _)| Pid(i))
                .collect(),
            crashed: self
                .statuses
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, ProcStatus::Crashed))
                .map(|(i, _)| Pid(i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FirstOutcome;
    use crate::process::Step;
    use crate::scheduler::{RoundRobin, Scripted, Solo};
    use lbsa_core::{ObjId, Op};

    /// Each process writes its input to its register, reads the other's
    /// register, and decides the max of what it saw (or its own input if the
    /// other register was still nil).
    #[derive(Debug)]
    struct WriteReadMax {
        inputs: Vec<i64>,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum WrmState {
        Write,
        Read,
    }

    impl Protocol for WriteReadMax {
        type LocalState = WrmState;

        fn num_processes(&self) -> usize {
            self.inputs.len()
        }

        fn init(&self, _pid: Pid) -> WrmState {
            WrmState::Write
        }

        fn pending_op(&self, pid: Pid, state: &WrmState) -> (ObjId, Op) {
            match state {
                WrmState::Write => (
                    ObjId(pid.index()),
                    Op::Write(Value::Int(self.inputs[pid.index()])),
                ),
                WrmState::Read => (ObjId(1 - pid.index()), Op::Read),
            }
        }

        fn on_response(&self, pid: Pid, state: &WrmState, response: Value) -> Step<WrmState> {
            match state {
                WrmState::Write => Step::Continue(WrmState::Read),
                WrmState::Read => {
                    let own = self.inputs[pid.index()];
                    let seen = response.as_int().unwrap_or(own);
                    Step::Decide(Value::Int(own.max(seen)))
                }
            }
        }
    }

    fn regs(n: usize) -> Vec<AnyObject> {
        (0..n).map(|_| AnyObject::register()).collect()
    }

    #[test]
    fn round_robin_run_decides_max() {
        let p = WriteReadMax { inputs: vec![3, 8] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert!(res.all_decided());
        assert!(res.is_quiescent());
        // Both wrote before either read (round-robin), so both decide 8.
        assert_eq!(res.distinct_decisions(), vec![Value::Int(8)]);
        assert_eq!(res.steps, 4);
    }

    #[test]
    fn solo_run_never_sees_the_other() {
        let p = WriteReadMax { inputs: vec![3, 8] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        let res = sys
            .run(&mut Solo::new(Pid(0)), &mut FirstOutcome, 100)
            .unwrap();
        // p0 decided its own input; p1 never moved; scheduler stopped.
        assert_eq!(sys.decision(Pid(0)), Some(Value::Int(3)));
        assert_eq!(sys.decision(Pid(1)), None);
        assert_eq!(res.end, RunEnd::SchedulerStopped);
    }

    #[test]
    fn scripted_schedule_controls_interleaving() {
        let p = WriteReadMax { inputs: vec![3, 8] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        // p0 writes, p0 reads (sees nil -> decides own 3), then p1 runs.
        let mut sched = Scripted::new([Pid(0), Pid(0), Pid(1), Pid(1)]);
        let res = sys.run(&mut sched, &mut FirstOutcome, 100).unwrap();
        assert_eq!(sys.decision(Pid(0)), Some(Value::Int(3)));
        assert_eq!(sys.decision(Pid(1)), Some(Value::Int(8)));
        assert!(res.all_decided());
    }

    #[test]
    fn trace_projection_matches_execution() {
        let p = WriteReadMax { inputs: vec![1, 2] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        let h0 = sys.trace().object_history(ObjId(0));
        // Register 0: p0's write, then p1's read.
        assert_eq!(h0.len(), 2);
        assert_eq!(h0[0].op, Op::Write(Value::Int(1)));
        assert_eq!(h0[1].op, Op::Read);
        assert_eq!(h0[1].response, Value::Int(1));
    }

    #[test]
    fn crash_plan_silences_a_process() {
        let p = WriteReadMax { inputs: vec![3, 8] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        let mut crashes = CrashPlan::new();
        crashes.crash(Pid(1), 0);
        let res = sys
            .run_with_crashes(&mut RoundRobin::new(), &mut FirstOutcome, &crashes, 100)
            .unwrap();
        assert_eq!(res.crashed, vec![Pid(1)]);
        assert_eq!(
            sys.decision(Pid(0)),
            Some(Value::Int(3)),
            "p0 ran wait-free despite the crash"
        );
        assert_eq!(sys.decision(Pid(1)), None);
        assert!(res.is_quiescent());
    }

    #[test]
    fn max_steps_bounds_the_run() {
        let p = WriteReadMax { inputs: vec![1, 2] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 1)
            .unwrap();
        assert_eq!(res.end, RunEnd::MaxSteps);
        assert_eq!(res.steps, 1);
    }

    #[test]
    fn stepping_a_decided_process_errors() {
        let p = WriteReadMax { inputs: vec![1, 2] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert!(matches!(
            sys.step_pid(Pid(0), &mut FirstOutcome),
            Err(RuntimeError::ProcessNotRunning(Pid(0)))
        ));
        assert!(matches!(
            sys.step_pid(Pid(9), &mut FirstOutcome),
            Err(RuntimeError::PidOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_process_protocol_rejected() {
        let p = WriteReadMax { inputs: vec![] };
        let objects = regs(2);
        assert!(matches!(
            System::new(&p, &objects),
            Err(RuntimeError::NoProcesses)
        ));
    }

    #[test]
    fn traced_runs_emit_begin_and_end_events() {
        use lbsa_support::obs::MemorySink;
        let p = WriteReadMax { inputs: vec![1, 2] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        let sink = MemorySink::new();
        sys.set_trace(Tracer::new(sink.clone()));
        let res = sys
            .run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert_eq!(sink.names(), vec!["run.begin", "run.end"]);
        let end = &sink.events()[1];
        assert_eq!(
            end.fields.get("end").and_then(Json::as_str),
            Some("quiescent")
        );
        assert_eq!(
            end.fields.get("steps").and_then(Json::as_i64),
            Some(i64::try_from(res.steps).unwrap())
        );
        assert_eq!(end.fields.get("decided").and_then(Json::as_i64), Some(2));
    }

    /// `pid` writes to its own register `steps[pid]` times, then decides,
    /// aborts or halts (by `pid % 3`), so every way out of `Running` is
    /// taken.
    #[derive(Debug)]
    struct Countdown {
        steps: Vec<u8>,
    }

    impl Protocol for Countdown {
        type LocalState = u8;

        fn num_processes(&self) -> usize {
            self.steps.len()
        }

        fn init(&self, pid: Pid) -> u8 {
            self.steps[pid.index()]
        }

        fn pending_op(&self, pid: Pid, _left: &u8) -> (ObjId, Op) {
            (ObjId(pid.index()), Op::Write(Value::Int(1)))
        }

        fn on_response(&self, pid: Pid, left: &u8, _response: Value) -> Step<u8> {
            match (left, pid.index() % 3) {
                (1.., _) => Step::Continue(left - 1),
                (0, 0) => Step::Decide(Value::Int(0)),
                (0, 1) => Step::Abort,
                (0, _) => Step::Halt,
            }
        }
    }

    #[test]
    fn enabled_set_tracks_statuses_under_any_calls() {
        lbsa_support::check::run_cases("enabled_set_tracks_statuses", 200, |rng| {
            let n = 1 + rng.random_range(0..6);
            let steps: Vec<u8> = (0..n).map(|_| rng.random_range(0..4) as u8).collect();
            let p = Countdown { steps };
            let objects = regs(n);
            let mut sys = System::new(&p, &objects).unwrap();
            for _ in 0..40 {
                // One pid past the end, so out-of-range calls are covered.
                let pid = Pid(rng.random_range(0..n + 1));
                if rng.ratio(1, 4) {
                    let _ = sys.crash(pid);
                } else {
                    let _ = sys.step_pid(pid, &mut FirstOutcome);
                }
                let derived: Vec<Pid> = sys
                    .statuses()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_running())
                    .map(|(i, _)| Pid(i))
                    .collect();
                assert_eq!(sys.enabled_pids(), derived.as_slice());
            }
        });
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let p = WriteReadMax { inputs: vec![1, 2] };
        let objects = regs(2);
        let mut sys = System::new(&p, &objects).unwrap();
        sys.set_record_trace(false);
        sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 100)
            .unwrap();
        assert!(sys.trace().is_empty());
        assert_eq!(sys.steps(), 4);
    }
}
