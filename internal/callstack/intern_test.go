package callstack

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInternDeduplicates(t *testing.T) {
	in := NewInterner()
	s1 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 20}}
	s2 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 20}}
	s3 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 21}}
	a := in.Intern(s1)
	b := in.Intern(s2)
	c := in.Intern(s3)
	if a != b {
		t.Fatalf("identical stacks interned to %d and %d", a, b)
	}
	if a == c {
		t.Fatal("different stacks interned to the same id")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

// Frame carries padding after its int32 routine; equal stacks whose padding
// bytes differ must still intern to one ID.
func TestInternIgnoresPadding(t *testing.T) {
	dirty := make(Stack, 2)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&dirty[0])), len(dirty)*int(unsafe.Sizeof(dirty[0])))
	for i := range raw {
		raw[i] = 0xFF
	}
	for i := range dirty {
		dirty[i].Routine = RoutineID(i)
		dirty[i].Line = 10 * (i + 1)
	}
	clean := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 20}}
	in := NewInterner()
	if a, b := in.Intern(dirty), in.Intern(clean); a != b {
		t.Fatalf("equal stacks interned to %d and %d", a, b)
	}
}

func TestInternCopies(t *testing.T) {
	in := NewInterner()
	s := Stack{{Routine: 3, Line: 7}}
	id := in.Intern(s)
	s[0].Line = 99 // mutate the caller's slice
	got, ok := in.Get(id)
	if !ok || got[0].Line != 7 {
		t.Fatal("interner shares storage with caller")
	}
}

func TestInternEmptyStack(t *testing.T) {
	in := NewInterner()
	id := in.Intern(Stack{})
	got, ok := in.Get(id)
	if !ok || len(got) != 0 {
		t.Fatalf("empty stack roundtrip = (%v, %v)", got, ok)
	}
	if id2 := in.Intern(Stack{}); id2 != id {
		t.Fatal("empty stack interned twice")
	}
}

func TestGetOutOfRange(t *testing.T) {
	in := NewInterner()
	if _, ok := in.Get(NoStack); ok {
		t.Fatal("Get(NoStack) returned ok")
	}
	if _, ok := in.Get(7); ok {
		t.Fatal("Get past end returned ok")
	}
}

func TestInternRoundtripProperty(t *testing.T) {
	in := NewInterner()
	check := func(routines []int16, lines []uint8) bool {
		n := len(routines)
		if len(lines) < n {
			n = len(lines)
		}
		s := make(Stack, n)
		for i := 0; i < n; i++ {
			s[i] = Frame{Routine: RoutineID(routines[i]), Line: int(lines[i])}
		}
		id := in.Intern(s)
		got, ok := in.Get(id)
		return ok && got.Equal(s) && in.Intern(s) == id
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllOrder(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Stack{{Routine: 1, Line: 1}})
	b := in.Intern(Stack{{Routine: 2, Line: 2}})
	all := in.All()
	if len(all) != 2 {
		t.Fatalf("All len = %d", len(all))
	}
	if !all[a].Equal(Stack{{Routine: 1, Line: 1}}) || !all[b].Equal(Stack{{Routine: 2, Line: 2}}) {
		t.Fatal("All order does not match ids")
	}
}
