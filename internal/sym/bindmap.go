package sym

// PackBinding packs a binding of at most two IDs injectively into one
// uint64. IDs are 32-bit and never zero (0 is reserved), so [] maps to 0,
// [a] to a, and [a b] to a<<32|b without collisions across arities. ok is
// false for longer bindings, which take the packed-string fallback.
func PackBinding(b []ID) (uint64, bool) {
	switch len(b) {
	case 0:
		return 0, true
	case 1:
		return uint64(b[0]), true
	case 2:
		return uint64(b[0])<<32 | uint64(b[1]), true
	}
	return 0, false
}

// BindMap is a map keyed by bindings of interned IDs. Bindings of up to
// two IDs — virtually every access pattern of the paper's workloads — key
// an integer map directly, so the hot paths hash one machine word and
// materialize no string; bindings of three or more IDs fall back to a map
// on packed keys. The zero value is ready to use.
type BindMap[V any] struct {
	packed map[uint64]V
	long   map[string]V
	// room is an entry count the packed map's buckets are known to hold:
	// what Reserve sized it for, or what it held when last cleared (Clear
	// keeps the buckets).
	room int
}

// Reserve sizes the map for n more bindings of the given width, so a caller
// that knows how many entries are coming — an executor pass knows its
// binding count before the first probe — pays one allocation instead of a
// doubling-and-rehash ladder from empty. A map already that roomy (a
// recycled one, typically) is left alone. Only the integer-keyed map is
// sized; bindings of three or more IDs grow on demand.
func (m *BindMap[V]) Reserve(width, n int) {
	if width > 2 {
		return
	}
	need := len(m.packed) + n
	if need <= m.room {
		return
	}
	grown := make(map[uint64]V, need)
	for k, v := range m.packed {
		grown[k] = v
	}
	m.packed, m.room = grown, need
}

// Get returns the value stored under binding b.
func (m *BindMap[V]) Get(b []ID) (V, bool) {
	if k, ok := PackBinding(b); ok {
		v, found := m.packed[k]
		return v, found
	}
	v, found := m.long[string(AppendKey(nil, b))]
	return v, found
}

// Put stores v under binding b; b is not retained.
func (m *BindMap[V]) Put(b []ID, v V) {
	if k, ok := PackBinding(b); ok {
		if m.packed == nil {
			m.packed = make(map[uint64]V)
		}
		m.packed[k] = v
		return
	}
	if m.long == nil {
		m.long = make(map[string]V)
	}
	m.long[string(AppendKey(nil, b))] = v
}

// Delete removes the entry stored under binding b, if any.
func (m *BindMap[V]) Delete(b []ID) {
	if k, ok := PackBinding(b); ok {
		delete(m.packed, k)
		return
	}
	delete(m.long, string(AppendKey(nil, b)))
}

// Clear removes every entry while keeping the allocated bucket capacity,
// making the map ready for pooled reuse.
func (m *BindMap[V]) Clear() {
	m.room = max(m.room, len(m.packed))
	clear(m.packed)
	clear(m.long)
}

// Len returns the number of entries.
func (m *BindMap[V]) Len() int { return len(m.packed) + len(m.long) }

// Range calls f for every entry until f returns false. The binding slice
// passed to f is reused between calls for packed entries; f must copy it
// if it keeps it.
func (m *BindMap[V]) Range(f func(b []ID, v V) bool) {
	var buf [2]ID
	for k, v := range m.packed {
		var b []ID
		switch {
		case k == 0:
			b = buf[:0]
		case k>>32 == 0:
			buf[0] = ID(k)
			b = buf[:1]
		default:
			buf[0] = ID(k >> 32)
			buf[1] = ID(k)
			b = buf[:2]
		}
		if !f(b, v) {
			return
		}
	}
	for s, v := range m.long {
		ids := make([]ID, 0, len(s)/4)
		for i := 0; i+4 <= len(s); i += 4 {
			ids = append(ids, ID(s[i])<<24|ID(s[i+1])<<16|ID(s[i+2])<<8|ID(s[i+3]))
		}
		if !f(ids, v) {
			return
		}
	}
}
