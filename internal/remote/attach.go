package remote

import (
	"fmt"
	"strings"

	"toorjah/internal/schema"
)

// AttachSpec names a peer and the relations to source from it, as given on
// the command line: "http://host:8344=R1,R2" attaches R1 and R2;
// "http://host:8344" alone leaves the choice to the caller (the façade's
// System.AttachRemote takes the shared relations it holds no data for).
type AttachSpec struct {
	Base string
	// Relations to attach; nil for a bare address.
	Relations []string
}

// ParseAttachSpec parses the -remote flag syntax base[=R1,R2,...].
func ParseAttachSpec(s string) (AttachSpec, error) {
	spec := AttachSpec{Base: strings.TrimSpace(s)}
	if eq := strings.IndexByte(s, '='); eq >= 0 {
		spec.Base = strings.TrimSpace(s[:eq])
		for _, r := range strings.Split(s[eq+1:], ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			spec.Relations = append(spec.Relations, r)
		}
		if len(spec.Relations) == 0 {
			return spec, fmt.Errorf("remote spec %q: empty relation list after '='", s)
		}
	}
	if spec.Base == "" {
		return spec, fmt.Errorf("remote spec %q: empty peer address", s)
	}
	if !strings.Contains(spec.Base, "://") {
		spec.Base = "http://" + spec.Base
	}
	return spec, nil
}

// AttachDiscovered builds one Source per attached relation of a peer whose
// schema, peer, FetchSchema has discovered. The list must name at least one
// relation, and every listed relation must be served by the peer with a
// declaration — name, access pattern, and domains — identical to the local
// one: a pattern mismatch would let the planner issue probes the peer
// rejects, and a domain mismatch would corrupt the relevance analysis.
func AttachDiscovered(c *Client, local, peer *schema.Schema, relations []string) ([]*Source, error) {
	if len(relations) == 0 {
		return nil, fmt.Errorf("remote %s: no relation to attach", c.base)
	}
	out := make([]*Source, 0, len(relations))
	for _, name := range relations {
		lrel := local.Relation(name)
		if lrel == nil {
			return nil, fmt.Errorf("remote %s: relation %s is not in the local schema", c.base, name)
		}
		prel := peer.Relation(name)
		if prel == nil {
			return nil, fmt.Errorf("remote %s: peer does not serve relation %s", c.base, name)
		}
		if lrel.String() != prel.String() {
			return nil, fmt.Errorf("remote %s: relation %s declared as %s locally but %s on the peer",
				c.base, name, lrel, prel)
		}
		out = append(out, c.Source(lrel))
	}
	return out, nil
}
