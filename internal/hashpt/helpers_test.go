package hashpt

import (
	"lvm/internal/addr"
	"lvm/internal/pte"
)

// Readers only the tests use.

// Lookup finds a translation and reports how many slots were probed.
func (t *Table) Lookup(v addr.VPN) (e pte.Entry, probes int, ok bool) {
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		tag := addr.AlignDown(v, s)
		h := t.home(tag)
		for d := 0; d < len(t.slots); d++ {
			i := (h + d) & (len(t.slots) - 1)
			probes++
			slot := t.slots[i]
			if !slot.Valid() {
				break // linear probing: an empty slot ends the chain
			}
			if slot.Tag == tag && slot.Entry.Size() == s {
				return slot.Entry, probes, true
			}
		}
	}
	return 0, probes, false
}

// LoadFactor returns the current occupancy.
func (t *Table) LoadFactor() float64 {
	return float64(t.used) / float64(len(t.slots))
}

// Slots returns the table capacity.
func (t *Table) Slots() int { return len(t.slots) }
