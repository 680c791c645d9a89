//! Vector clocks over node indices, as plain `u64` slices.
//!
//! The auditor reconstructs the happens-before partial order of a recorded
//! run with the textbook vector-clock algorithm: every node carries one
//! counter per node, ticks its own component on each local event, and joins
//! (componentwise max) the sender's snapshot into its own clock when a
//! message is delivered. Two events are then causally ordered iff their
//! snapshots are componentwise ordered, and *concurrent* (racing) iff the
//! snapshots are incomparable.
//!
//! The auditor keeps every clock as one row of a flat table, so a clock here
//! is a slice with one component per node, and the operations are free
//! functions over slices of equal length.

/// Advances node `i`'s own component by one (a local event at `i`).
pub fn tick(clock: &mut [u64], i: usize) {
    if let Some(c) = clock.get_mut(i) {
        *c += 1;
    }
}

/// Joins `theirs` into `mine` (componentwise max) — the receiver's side of
/// a delivery.
pub fn join(mine: &mut [u64], theirs: &[u64]) {
    for (m, t) in mine.iter_mut().zip(theirs) {
        *m = (*m).max(*t);
    }
}

/// Whether the event stamped `a` happens-before the event stamped `b`:
/// componentwise `≤` with at least one strict component.
pub fn precedes(a: &[u64], b: &[u64]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Whether the two stamps are causally incomparable — the events *race*.
pub fn concurrent(a: &[u64], b: &[u64]) -> bool {
    a != b && !precedes(a, b) && !precedes(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_join_build_the_partial_order() {
        let mut a = [0u64; 3];
        let mut b = [0u64; 3];
        tick(&mut a, 0); // a = [1,0,0]
        let send = a;
        tick(&mut b, 1); // b = [0,1,0]  — concurrent with the send
        assert!(concurrent(&send, &b));
        join(&mut b, &send);
        tick(&mut b, 1); // b = [1,2,0]  — now causally after the send
        assert!(precedes(&send, &b));
        assert!(!precedes(&b, &send));
        assert!(!concurrent(&send, &b));
    }

    #[test]
    fn equal_clocks_neither_precede_nor_race() {
        let a = [0u64; 2];
        let b = [0u64; 2];
        assert!(!precedes(&a, &b));
        assert!(!concurrent(&a, &b));
    }

    #[test]
    fn same_node_events_are_totally_ordered() {
        let mut c = [0u64; 2];
        tick(&mut c, 0);
        let first = c;
        tick(&mut c, 0);
        assert!(precedes(&first, &c));
    }
}
