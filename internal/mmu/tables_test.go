package mmu

import "testing"

// TestTables pins the per-ASID registry every walker embeds, memo
// included: a stale memo would walk a replaced or dropped table.
func TestTables(t *testing.T) {
	a, b := new(int), new(int)

	t.Run("zero value", func(t *testing.T) {
		var r Tables[*int]
		if _, ok := r.Table(1); ok {
			t.Fatal("empty registry resolved ASID 1")
		}
		r.Drop(1)
		r.Attach(1, a)
		if got, ok := r.Table(1); !ok || got != a {
			t.Fatalf("Table(1) = %p/%t, want %p", got, ok, a)
		}
	})

	t.Run("attach replaces memoized", func(t *testing.T) {
		var r Tables[*int]
		r.Attach(1, a)
		r.Table(1)
		r.Attach(1, b)
		if got, ok := r.Table(1); !ok || got != b {
			t.Fatalf("Table(1) after re-attach = %p/%t, want %p", got, ok, b)
		}
	})

	t.Run("drop", func(t *testing.T) {
		var r Tables[*int]
		r.Attach(1, a)
		r.Attach(2, b)
		r.Table(1)
		r.Drop(1)
		if got, ok := r.Table(1); ok {
			t.Fatalf("Table(1) after drop = %p, want not found", got)
		}
		if got, ok := r.Table(2); !ok || got != b {
			t.Fatalf("Table(2) = %p/%t, want %p", got, ok, b)
		}
	})

	t.Run("miss keeps memo", func(t *testing.T) {
		var r Tables[*int]
		r.Attach(1, a)
		r.Table(1)
		if _, ok := r.Table(7); ok {
			t.Fatal("unknown ASID 7 resolved")
		}
		if !r.lastOK || r.lastASID != 1 || r.last != a {
			t.Fatalf("miss clobbered the memo: asid %d, table %p, valid %t", r.lastASID, r.last, r.lastOK)
		}
	})

	t.Run("no allocs", func(t *testing.T) {
		var r Tables[*int]
		r.Attach(1, a)
		r.Attach(2, b)
		asid := uint16(1)
		if n := testing.AllocsPerRun(100, func() {
			r.Table(asid) // alternate between memo hits and map reads
			r.Table(asid)
			asid ^= 3
		}); n != 0 {
			t.Fatalf("Table allocates %v times per run", n)
		}
	})
}
