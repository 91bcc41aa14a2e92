//! Wire-codec impls for the ML substrate's experience types.
//!
//! Rewards, states, and actions are `f64` vectors; the wire's shortest
//! round-trip float rendering means a transition that crosses a process
//! boundary trains the shared agent to *bit-identical* weights.

use firm_wire::wire_struct;

use crate::ddpg::Transition;

wire_struct!(Transition {
    state,
    action,
    reward,
    next_state,
    done,
});

#[cfg(test)]
mod tests {
    use super::*;
    use firm_wire::assert_round_trip;

    #[test]
    fn transitions_round_trip_with_exact_floats() {
        assert_round_trip(&Transition {
            state: vec![0.1, -0.2, 1.0 / 3.0, f64::MIN_POSITIVE],
            action: vec![-1.0, 1.0, -0.0],
            reward: -std::f64::consts::E,
            next_state: vec![1e-300, 1e300],
            done: true,
        });
        let small = Transition {
            state: vec![0.25, -0.5],
            action: vec![1.0],
            reward: -0.125,
            next_state: vec![0.3, 0.7],
            done: false,
        };
        assert_eq!(
            firm_wire::encode_string(&small),
            r#"{"state":[0.25,-0.5],"action":[1],"reward":-0.125,"next_state":[0.3,0.7],"done":false}"#
        );
    }
}
