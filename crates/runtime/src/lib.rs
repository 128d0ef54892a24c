//! # lbsa-runtime — the asynchronous shared-memory system
//!
//! This crate realizes the computational model of *Life Beyond Set
//! Agreement*: asynchronous processes that apply operations to wait-free
//! linearizable shared objects and may fail by crashing.
//!
//! * A [`process::Protocol`] is a **deterministic** per-process step machine:
//!   in every local state a process has exactly one pending operation on one
//!   object, and its next local state is a function of the response. This is
//!   the paper's determinism assumption (used in Theorem 4.2's proof), with
//!   all nondeterminism pushed into the scheduler and the objects.
//! * A [`system::System`] holds the shared objects and process states. One
//!   **atomic step** = one process applies its pending operation to one
//!   object (interleaving semantics of linearizable objects).
//! * [`kernel::StepKernel`] defines that atomic step once: the system, both
//!   exploration engines and witness replay all step through it.
//! * A [`scheduler::Scheduler`] chooses which process steps next:
//!   round-robin, seeded random, scripted, or solo. Crashes are modelled by
//!   [`scheduler::CrashPlan`]s — a crashed process simply never takes another
//!   step.
//! * An [`outcome::OutcomeResolver`] chooses among the admissible outcomes of
//!   a nondeterministic object (the 2-SA and (n,k)-SA families).
//! * [`script::ScriptProtocol`] turns a plain workload (a fixed operation
//!   list per process) into a protocol — the substrate for history
//!   generation and machinery fuzzing.
//! * [`derived::DerivedProtocol`] implements the paper's *implementation*
//!   relation: operations on front-end objects are expanded, step by step,
//!   into operations on base objects via an [`derived::AccessProcedure`].
//!   The transformed protocol is an ordinary [`process::Protocol`], so every
//!   tool in the workspace (schedulers, the explorer, the adversary) applies
//!   to implemented objects exactly as to native ones.
//!
//! ## Example: two processes race on a consensus object
//!
//! ```
//! use lbsa_core::{AnyObject, Op, Pid, ObjId, Value};
//! use lbsa_runtime::process::{Protocol, Step};
//! use lbsa_runtime::system::System;
//! use lbsa_runtime::scheduler::RoundRobin;
//! use lbsa_runtime::outcome::FirstOutcome;
//!
//! #[derive(Debug)]
//! struct OneShot { inputs: Vec<Value> }
//!
//! impl Protocol for OneShot {
//!     type LocalState = bool; // proposed yet?
//!     fn num_processes(&self) -> usize { self.inputs.len() }
//!     fn init(&self, _pid: Pid) -> bool { false }
//!     fn pending_op(&self, pid: Pid, _s: &bool) -> (ObjId, Op) {
//!         (ObjId(0), Op::Propose(self.inputs[pid.index()]))
//!     }
//!     fn on_response(&self, _pid: Pid, _s: &bool, resp: Value) -> Step<bool> {
//!         Step::Decide(resp)
//!     }
//! }
//!
//! let protocol = OneShot { inputs: vec![Value::Int(10), Value::Int(20)] };
//! let objects = vec![AnyObject::consensus(2).unwrap()];
//! let mut sys = System::new(&protocol, &objects).unwrap();
//! let result = sys.run(&mut RoundRobin::new(), &mut FirstOutcome, 100).unwrap();
//! assert!(result.all_decided());
//! assert_eq!(sys.decision(Pid(0)), Some(Value::Int(10)));
//! assert_eq!(sys.decision(Pid(1)), Some(Value::Int(10)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derived;
pub mod error;
pub mod kernel;
pub mod outcome;
pub mod process;
pub mod scheduler;
pub mod script;
pub mod system;
pub mod trace;

pub use error::RuntimeError;
pub use process::{ProcStatus, Protocol, Step};
pub use system::{RunEnd, RunResult, System};
