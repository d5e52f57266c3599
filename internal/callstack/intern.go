package callstack

import (
	"encoding/binary"
	"hash/maphash"
)

// StackID indexes an interned stack in an Interner.
type StackID int32

// NoStack marks a sample without a captured call stack.
const NoStack StackID = -1

// Interner deduplicates call-stack snapshots. Iterative HPC codes revisit
// the same few hundred distinct stacks millions of times, so interning keeps
// trace memory proportional to the code structure rather than the sample
// count — the same trick Extrae's sample buffers use.
type Interner struct {
	seed   maphash.Seed
	stacks []Stack
	index  map[uint64][]StackID
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		seed:  maphash.MakeSeed(),
		index: make(map[uint64][]StackID),
	}
}

// hash covers each frame's fields explicitly: Frame's raw memory includes
// padding after the int32 routine, and equal stacks may differ there.
func (in *Interner) hash(s Stack) uint64 {
	var h maphash.Hash
	h.SetSeed(in.seed)
	var b [12]byte
	for _, f := range s {
		binary.LittleEndian.PutUint32(b[:4], uint32(f.Routine))
		binary.LittleEndian.PutUint64(b[4:], uint64(f.Line))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Intern registers the stack (copying it) and returns its identifier.
// Interning an identical stack returns the existing identifier.
func (in *Interner) Intern(s Stack) StackID {
	h := in.hash(s)
	for _, id := range in.index[h] {
		if in.stacks[id].Equal(s) {
			return id
		}
	}
	id := StackID(len(in.stacks))
	in.stacks = append(in.stacks, s.Clone())
	in.index[h] = append(in.index[h], id)
	return id
}

// Get returns the stack for id. The second result is false for NoStack or
// out-of-range identifiers. The returned slice is shared; callers must not
// modify it.
func (in *Interner) Get(id StackID) (Stack, bool) {
	if id < 0 || int(id) >= len(in.stacks) {
		return nil, false
	}
	return in.stacks[id], true
}

// Len returns the number of distinct stacks interned.
func (in *Interner) Len() int { return len(in.stacks) }

// All returns the interned stacks in identifier order. Shared storage; do
// not modify.
func (in *Interner) All() []Stack { return in.stacks }
