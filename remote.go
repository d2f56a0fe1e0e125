package toorjah

// Federation: a System can source relations from remote toorjahd peers
// instead of (or mixed with) local tables. A peer serves its relations over
// the probe protocol of internal/remote (POST /probe, batched bindings in,
// NDJSON rows out); this node attaches them as ordinary sources, so every
// layer above — the executors, the batcher, the cross-query cache, the
// parallel union runner — composes unchanged, now amortising real network
// round trips instead of simulated latency.

import (
	"context"
	"fmt"

	"toorjah/internal/exec"
	"toorjah/internal/remote"
	"toorjah/internal/source"
)

// Re-exported remote types, so applications configure federation without
// importing the internal package.
type (
	// RemoteOptions tunes the remote-source clients: per-attempt timeout,
	// bounded retries with backoff and jitter, per-relation circuit
	// breaker, response-size limit.
	RemoteOptions = remote.Options
	// RemotePeer is an attached peer: one probe client with per-relation
	// breakers and telemetry, shared by every relation sourced from it.
	RemotePeer = remote.Client
	// RemoteTelemetry is the accumulated probe accounting of one relation
	// against one peer.
	RemoteTelemetry = remote.Telemetry
)

// WithRemoteOptions sets the client tuning used by every subsequently
// attached peer (AttachRemote); the zero value is the package defaults.
func WithRemoteOptions(o RemoteOptions) SystemOption {
	return func(s *System) { s.remoteOpts = o }
}

// AttachRemote attaches a federation peer by spec — "http://host:8344=R1,R2",
// or just the address to attach every peer relation the schema declares
// that this node does not already hold data for: it parses the spec, dials
// the peer, discovers its schema, verifies every attached relation is
// declared identically on both sides, and binds a remote source per
// relation (dropping any cached accesses of those relations, like any
// rebind).
func (s *System) AttachRemote(ctx context.Context, spec string) error {
	s.remoteMu.Lock()
	defer s.remoteMu.Unlock()
	return s.attachRemoteLocked(ctx, spec)
}

// attachRemoteLocked does the attach; callers hold s.remoteMu. The
// context bounds the schema discovery round trip.
func (s *System) attachRemoteLocked(ctx context.Context, spec string) error {
	as, err := remote.ParseAttachSpec(spec)
	if err != nil {
		return fmt.Errorf("toorjah: %w", err)
	}
	c := remote.Dial(as.Base, s.remoteOpts)
	peer, err := c.FetchSchema(ctx)
	if err != nil {
		c.Close()
		return fmt.Errorf("toorjah: %w", err)
	}
	relations := as.Relations
	if relations == nil {
		// Bare attach: source from the peer what this node does not hold
		// itself. The peer's /schema lists its *declared* relations —
		// including ones it only serves as empty placeholders — so without
		// the locallyOwned filter a bare attach would shadow this node's
		// own data-bearing tables behind remote (possibly empty) sources.
		// An explicit =R1,R2 list always wins, shadowing included.
		for _, rel := range peer.Relations() {
			if s.sch.Has(rel.Name) && !s.locallyOwned(rel.Name) {
				relations = append(relations, rel.Name)
			}
		}
		if len(relations) == 0 {
			c.Close()
			return fmt.Errorf("toorjah: remote %s: no peer relation to attach (every shared relation is already locally bound)", as.Base)
		}
	}
	srcs, err := remote.AttachDiscovered(c, s.sch, peer, relations)
	if err != nil {
		c.Close()
		return fmt.Errorf("toorjah: %w", err)
	}
	for _, src := range srcs {
		s.Bind(src)
	}
	s.peers = append(s.peers, c)
	return nil
}

// locallyOwned reports whether a relation's current binding is worth
// keeping in front of a bare remote attach: anything except no binding at
// all, an empty local table (the placeholder a missing CSV leaves behind),
// or a source already attached from another peer. Custom wrappers are
// opaque, so they count as owned.
func (s *System) locallyOwned(name string) bool {
	switch src := s.reg.Source(name).(type) {
	case nil:
		return false
	case *source.TableSource:
		return src.Table().Snapshot().Len() > 0
	case *remote.Source:
		return false
	default:
		return true
	}
}

// RemotePeers returns the attached federation peers, in attach order; use
// them for telemetry (RemotePeer.Telemetry) and reachability
// (RemotePeer.Healthy).
func (s *System) RemotePeers() []*RemotePeer {
	s.remoteMu.Lock()
	defer s.remoteMu.Unlock()
	out := make([]*RemotePeer, len(s.peers))
	copy(out, s.peers)
	return out
}

// PeerSource returns a relation's source as served to federated peers, nil
// when none is bound, opened as an execution opens it: behind the
// cross-query cache when one is configured, over the source pinned to its
// current version, so the epoch it reports is the one every probe reads.
// Call and probe it under one symbol hold, as remote.Handler does; toorjahd's
// /probe endpoint asks per request, so it serves what is bound now.
func (s *System) PeerSource(name string) Wrapper {
	paths, err := exec.Open(s.reg, []string{name}, s.execOpts(Options{}))
	if err != nil {
		return nil // nothing bound
	}
	return paths.Source(0)
}
