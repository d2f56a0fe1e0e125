package remote

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen fails a probe fast while a relation's circuit breaker is
// open: the peer has failed repeatedly and retrying every access would only
// stack timeouts. The breaker re-admits a single trial probe after the
// cooldown; callers see the error wrapped with the peer and relation.
var ErrBreakerOpen = errors.New("remote: circuit breaker open")

// breakerState is the classic three-state circuit, numbered as the
// toorjah_remote_breaker_state gauge shows it.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is a per-relation circuit breaker: threshold consecutive probe
// failures open it for cooldown, during which every probe fails fast; the
// first probe after the cooldown is admitted as a trial (half-open), whose
// outcome closes or re-opens the circuit.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	opens    int       // lifetime count, for telemetry
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a probe may proceed. In the open state it admits
// nothing until the cooldown has elapsed, then transitions to half-open and
// admits exactly one trial; further probes fail fast until that trial
// resolves through success or failure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: a trial is already in flight
		return false
	}
}

// success records a completed probe, closing the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// failure records a failed probe: a failed half-open trial re-opens the
// circuit immediately, and the threshold-th consecutive failure while
// closed opens it.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.open()
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.open()
	}
}

// open trips the circuit; callers hold b.mu.
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.failures = 0
	b.opens++
}

// snapshot returns the current state and the lifetime number of times the
// circuit opened.
func (b *breaker) snapshot() (breakerState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
