package sym

// SweepFloor is the fewest IDs issued between two sweeps, for the bounds
// the external tests state.
const SweepFloor = sweepFloor

// DrainWait is the longest a new hold waits for an overdue sweep.
const DrainWait = drainWait
