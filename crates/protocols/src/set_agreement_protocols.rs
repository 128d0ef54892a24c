//! k-set agreement protocols.
//!
//! Three ways to solve the `k`-set agreement problem with the paper's
//! objects, each verified exhaustively by the experiments:
//!
//! * [`KSetViaStrongSa`] — everyone proposes to one strong 2-SA object and
//!   decides the response: solves `k`-set agreement for every `k >= 2`
//!   among **any** number of processes (Section 4).
//! * [`GroupSplitKSet`] — partition `k·n` processes into `k` groups of `n`;
//!   each group runs consensus on its own `n`-consensus object. At most one
//!   value is decided per group, hence at most `k` overall. This is the
//!   protocol behind the certified lower bounds `n_k >= k·n` used to build
//!   `O'ₙ` (Section 6), and it works just as well through the `PROPOSEC`
//!   faces of `k` instances of `Oₙ` — which is how the experiments certify
//!   the set agreement power of `Oₙ` itself.
//! * [`KSetViaPowerLevel`] — propose at level `k` of a power object `O'ₙ`:
//!   its `(n_k, k)-SA` component solves the problem among `n_k` processes
//!   by construction.

use lbsa_core::{ObjId, Op, Pid, Value};
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// k-set agreement (any `k >= 2`) among any number of processes via one
/// strong 2-SA object: propose, decide the response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KSetViaStrongSa {
    inputs: Vec<Value>,
    obj: ObjId,
}

impl KSetViaStrongSa {
    /// Creates the protocol; `obj` must hold a 2-SA object.
    #[must_use]
    pub fn new(inputs: Vec<Value>, obj: ObjId) -> Self {
        KSetViaStrongSa { inputs, obj }
    }
}

impl Protocol for KSetViaStrongSa {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, pid: Pid, _state: &()) -> (ObjId, Op) {
        (self.obj, Op::Propose(self.inputs[pid.index()]))
    }

    fn on_response(&self, _pid: Pid, _state: &(), response: Value) -> Step<()> {
        Step::Decide(response)
    }
}

/// Processes with equal inputs are interchangeable: the strong 2-SA state
/// holds only captured values, never pids.
impl Symmetry for KSetViaStrongSa {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

/// Which face of the per-group object carries the proposal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupFace {
    /// Plain `PROPOSE(v)` on an `n`-consensus object per group.
    Consensus,
    /// `PROPOSEC(v)` on an (n,m)-PAC object (e.g. `Oₙ`) per group.
    CombinedC,
}

/// Group-split k-set agreement: `k` groups of at most `group_size`
/// processes; group `g` agrees through object `ObjId(g)`.
///
/// Process `Pid(i)` belongs to group `i / group_size`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSplitKSet {
    inputs: Vec<Value>,
    group_size: usize,
    face: GroupFace,
}

impl GroupSplitKSet {
    /// Creates a group-split protocol over per-group `n`-consensus objects
    /// (`ObjId(0) .. ObjId(k-1)`, each of arity `group_size`).
    ///
    /// # Errors
    ///
    /// Returns an error string if `group_size == 0`.
    pub fn new(inputs: Vec<Value>, group_size: usize) -> Result<Self, String> {
        if group_size == 0 {
            return Err("group_size must be at least 1".to_string());
        }
        Ok(GroupSplitKSet {
            inputs,
            group_size,
            face: GroupFace::Consensus,
        })
    }

    /// Creates a group-split protocol over the `PROPOSEC` faces of per-group
    /// (n,m)-PAC objects (e.g. `k` instances of `Oₙ`, whose consensus faces
    /// have arity `n = group_size`).
    ///
    /// # Errors
    ///
    /// Returns an error string if `group_size == 0`.
    pub fn via_combined(inputs: Vec<Value>, group_size: usize) -> Result<Self, String> {
        Ok(GroupSplitKSet {
            face: GroupFace::CombinedC,
            ..Self::new(inputs, group_size)?
        })
    }

    /// The number of groups `k` = number of distinct values possible.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.inputs.len().div_ceil(self.group_size)
    }

    fn group_of(&self, pid: Pid) -> usize {
        pid.index() / self.group_size
    }
}

impl Protocol for GroupSplitKSet {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, pid: Pid, _state: &()) -> (ObjId, Op) {
        let v = self.inputs[pid.index()];
        let op = match self.face {
            GroupFace::Consensus => Op::Propose(v),
            GroupFace::CombinedC => Op::ProposeC(v),
        };
        (ObjId(self.group_of(pid)), op)
    }

    fn on_response(&self, _pid: Pid, _state: &(), response: Value) -> Step<()> {
        Step::Decide(response)
    }
}

/// Processes in the *same group* with equal inputs are interchangeable
/// (swapping across groups would have to permute the per-group objects,
/// which the pid action cannot express). Per-group consensus/PAC-face
/// states are pid-free.
impl Symmetry for GroupSplitKSet {
    fn pid_classes(&self) -> Vec<u32> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let first = self
                    .inputs
                    .iter()
                    .enumerate()
                    .position(|(j, w)| j / self.group_size == i / self.group_size && w == v)
                    .expect("i matches itself");
                u32::try_from(first).expect("process count fits in u32")
            })
            .collect()
    }
}

/// k-set agreement via level `k` of a power object: propose at level `k`,
/// decide the response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KSetViaPowerLevel {
    inputs: Vec<Value>,
    obj: ObjId,
    k: usize,
}

impl KSetViaPowerLevel {
    /// Creates the protocol; `obj` must hold a power object with a level-`k`
    /// component of arity at least `inputs.len()`.
    #[must_use]
    pub fn new(inputs: Vec<Value>, obj: ObjId, k: usize) -> Self {
        KSetViaPowerLevel { inputs, obj, k }
    }
}

impl Protocol for KSetViaPowerLevel {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, pid: Pid, _state: &()) -> (ObjId, Op) {
        (self.obj, Op::ProposeAt(self.inputs[pid.index()], self.k))
    }

    fn on_response(&self, _pid: Pid, _state: &(), response: Value) -> Step<()> {
        Step::Decide(response)
    }
}

/// Processes with equal inputs are interchangeable: the power object's
/// component SA states hold values and port counts, never pids.
impl Symmetry for KSetViaPowerLevel {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsa_core::value::int;
    use lbsa_core::AnyObject;
    use lbsa_explorer::Explorer;

    fn distinct_inputs(n: usize) -> Vec<Value> {
        (0..n).map(|i| int(i as i64)).collect()
    }

    #[test]
    fn strong_sa_solves_2_set_agreement_for_many_processes() {
        // 2-set agreement among 5 processes with all-distinct inputs: the
        // worst case for the agreement bound. Every interleaving and every
        // nondeterministic response is covered.
        let inputs = distinct_inputs(5);
        let p = KSetViaStrongSa::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_k_set_agreement(2, &inputs);
        assert!(v.holds(), "2-SA failed 2-set agreement: {v}");
    }

    #[test]
    fn strong_sa_does_not_solve_consensus() {
        let inputs = distinct_inputs(3);
        let p = KSetViaStrongSa::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex
            .exploration()
            .check_k_set_agreement(1, &inputs)
            .is_violated());
    }

    #[test]
    fn group_split_certifies_n_k_lower_bound() {
        // k = 2 groups of n = 2: 2-set agreement among 4 processes using
        // two 2-consensus objects — the n_2 >= 2·2 certificate for O_2's
        // power table.
        let inputs = distinct_inputs(4);
        let p = GroupSplitKSet::new(inputs.clone(), 2).unwrap();
        assert_eq!(p.groups(), 2);
        let objects = vec![
            AnyObject::consensus(2).unwrap(),
            AnyObject::consensus(2).unwrap(),
        ];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_k_set_agreement(2, &inputs);
        assert!(v.holds(), "group split failed: {v}");
    }

    #[test]
    fn group_split_via_o_n_faces() {
        // The same bound through the PROPOSEC faces of two O_2 instances:
        // this is the protocol that certifies n_2(O_2) >= 4.
        let inputs = distinct_inputs(4);
        let p = GroupSplitKSet::via_combined(inputs.clone(), 2).unwrap();
        let objects = vec![AnyObject::o_n(2).unwrap(), AnyObject::o_n(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_k_set_agreement(2, &inputs);
        assert!(v.holds(), "group split over O_2 failed: {v}");
    }

    #[test]
    fn group_split_does_not_beat_its_group_count() {
        // 2 groups cannot do better than 2-set agreement when inputs are
        // distinct: 1-set agreement fails.
        let inputs = distinct_inputs(4);
        let p = GroupSplitKSet::new(inputs.clone(), 2).unwrap();
        let objects = vec![
            AnyObject::consensus(2).unwrap(),
            AnyObject::consensus(2).unwrap(),
        ];
        let ex = Explorer::new(&p, &objects);
        assert!(ex
            .exploration()
            .check_k_set_agreement(1, &inputs)
            .is_violated());
    }

    #[test]
    fn power_level_k_solves_k_set_agreement_among_n_k() {
        // O'_2 with the certified table has n_2 = 4: level 2 solves 2-set
        // agreement among 4 processes.
        let inputs = distinct_inputs(4);
        let p = KSetViaPowerLevel::new(inputs.clone(), ObjId(0), 2);
        let objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_k_set_agreement(2, &inputs);
        assert!(v.holds(), "O'_2 level 2 failed: {v}");
    }

    #[test]
    fn power_level_k_respects_port_budget() {
        // n_2 = 4: a fifth proposer at level 2 receives ⊥ (validity failure).
        let inputs = distinct_inputs(5);
        let p = KSetViaPowerLevel::new(inputs.clone(), ObjId(0), 2);
        let objects = vec![AnyObject::o_prime_n(2, 2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        assert!(ex
            .exploration()
            .check_k_set_agreement(2, &inputs)
            .is_violated());
    }

    #[test]
    fn symmetry_reduction_shrinks_equal_input_sa_graphs() {
        let inputs = vec![int(7); 4];
        let p = KSetViaStrongSa::new(inputs.clone(), ObjId(0));
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().run().unwrap();
        let reduced = ex.exploration().symmetric().run().unwrap();
        assert!(reduced.configs.len() < raw.configs.len());
        let vr = ex.exploration().check_k_set_agreement(2, &inputs);
        let vq = ex
            .exploration()
            .symmetric()
            .check_k_set_agreement(2, &inputs);
        assert_eq!(vr.outcome.tag(), vq.outcome.tag());
    }

    #[test]
    fn group_split_classes_respect_group_boundaries() {
        // Equal inputs everywhere, two groups of two: pids are
        // interchangeable within a group only (they share an object).
        let p = GroupSplitKSet::new(vec![int(0); 4], 2).unwrap();
        assert_eq!(p.pid_classes(), vec![0, 0, 2, 2]);
    }

    #[test]
    fn group_size_zero_rejected() {
        assert!(GroupSplitKSet::new(distinct_inputs(2), 0).is_err());
        assert!(GroupSplitKSet::via_combined(distinct_inputs(2), 0).is_err());
    }

    #[test]
    fn group_assignment() {
        let p = GroupSplitKSet::new(distinct_inputs(5), 2).unwrap();
        assert_eq!(p.groups(), 3);
        assert_eq!(p.pending_op(Pid(0), &()).0, ObjId(0));
        assert_eq!(p.pending_op(Pid(1), &()).0, ObjId(0));
        assert_eq!(p.pending_op(Pid(2), &()).0, ObjId(1));
        assert_eq!(p.pending_op(Pid(4), &()).0, ObjId(2));
    }
}
