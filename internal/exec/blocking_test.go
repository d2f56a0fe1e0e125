package exec

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// mayBlock hides whether its source can block: it implements Wrapper and
// Versioned and nothing else, so by source.CanBlock it can, as a remote
// source can, and an access cache still sees its epoch.
type mayBlock struct{ source.Wrapper }

func (m mayBlock) Epoch() uint64 { return source.EpochOf(m.Wrapper) }

// blocking returns the fixture over the same tables, each behind mayBlock:
// a pipelined run over it makes its round trips on goroutines.
func (f *fixture) blocking() *fixture {
	reg := source.NewRegistry()
	for _, name := range f.reg.Names() {
		reg.Bind(mayBlock{f.reg.Source(name)})
	}
	g := *f
	g.reg = reg
	return &g
}

// onBothPaths runs check over the fixture's tables, whose round trips a run
// makes on its coordinator, and over the same tables behind sources that can
// block, whose round trips a pipelined run makes on goroutines. The blocking
// fixture is taken first, so check may rebind the other.
func onBothPaths(t *testing.T, f *fixture, check func(t *testing.T, f *fixture)) {
	t.Helper()
	b := f.blocking()
	t.Run("tables", func(t *testing.T) { check(t, f) })
	t.Run("blocking", func(t *testing.T) { check(t, b) })
}

// goid names the calling goroutine.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// probeSpy records where its source's round trips run and how many are in
// flight at once. One that says it can block also holds each round trip —
// for a second at most — until two have been in flight together.
type probeSpy struct {
	source.Wrapper
	canBlock bool

	mu         sync.Mutex
	goroutines map[string]int // round trips per goroutine
	inflight   int
	most       int           // the most round trips in flight at once
	two        chan struct{} // closed when two first are; nil unless canBlock
}

func newProbeSpy(w source.Wrapper, canBlock bool) *probeSpy {
	s := &probeSpy{Wrapper: w, canBlock: canBlock, goroutines: map[string]int{}}
	if canBlock {
		s.two = make(chan struct{})
	}
	return s
}

func (s *probeSpy) CanBlock() bool { return s.canBlock }

func (s *probeSpy) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	s.mu.Lock()
	s.goroutines[goid()]++
	s.inflight++
	if s.inflight == 2 && s.most == 1 && s.two != nil {
		close(s.two)
	}
	s.most = max(s.most, s.inflight)
	s.mu.Unlock()
	if s.two != nil {
		select {
		case <-s.two:
		case <-time.After(time.Second):
		}
	}
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	return s.Wrapper.Probe(ctx, ids, out)
}

// TestRoundTripsRunWhereTheSourceSays: a pipelined run makes the round trips
// of a source that cannot block on the coordinator — over plain tables it
// starts no goroutine — and keeps several round trips of a source that can
// block in flight at once, none of them on the coordinator.
func TestRoundTripsRunWhereTheSourceSays(t *testing.T) {
	ctx := context.Background()
	opts := Options{MaxBatch: 1}
	spy := func(f *fixture, rel string, canBlock bool) *probeSpy {
		s := newProbeSpy(f.reg.Source(rel), canBlock)
		f.reg.Bind(s)
		return s
	}

	t.Run("cannot block", func(t *testing.T) {
		f := chainFixture(t)
		spies := []*probeSpy{spy(f, "free", false), spy(f, "mid", false)}
		me := goid()
		res, err := Pipelined(ctx, f.plan, f.reg, opts, nil)
		if err != nil || res.Answers.Len() != 30 {
			t.Fatalf("err = %v, result = %v; want 30 answers", err, res)
		}
		for _, s := range spies {
			if s.goroutines[me] != res.Stats[s.Relation().Name].Batches || len(s.goroutines) != 1 || s.most != 1 {
				t.Errorf("%s: round trips per goroutine %v, at most %d in flight; want all %d on the coordinator (%s), one at a time",
					s.Relation().Name, s.goroutines, s.most, res.Stats[s.Relation().Name].Batches, me)
			}
		}
	})

	t.Run("can block", func(t *testing.T) {
		f := chainFixture(t)
		s := spy(f, "mid", true)
		me := goid()
		res, err := Pipelined(ctx, f.plan, f.reg, opts, nil)
		if err != nil || res.Answers.Len() != 30 {
			t.Fatalf("err = %v, result = %v; want 30 answers", err, res)
		}
		if s.goroutines[me] != 0 || s.most < 2 || s.most > roundTripsInFlight {
			t.Errorf("mid: round trips per goroutine %v, at most %d in flight; want none on the coordinator (%s) and 2 to %d at once",
				s.goroutines, s.most, me, roundTripsInFlight)
		}
	})
}
