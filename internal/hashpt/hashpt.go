// Package hashpt implements a conventional open-addressing hashed page
// table using BLAKE2 at a fixed load factor — the collision-rate baseline
// of §7.3 ("a hash table that has a load factor of 0.6 and uses the
// state-of-the-art hash function Blake2").
//
// It exists to quantify how much better a learned placement is than a
// strong hash: the paper reports 22% (4 KB) / 19% (THP) collision rates for
// this baseline against LVM's 0.2% / 0.6%.
package hashpt

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/blake2b"
	"lvm/internal/metrics"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// DefaultLoadFactor matches the paper's baseline configuration.
const DefaultLoadFactor = 0.6

// Table is an open-addressing hash table of tagged PTEs with linear
// probing for collision resolution.
type Table struct {
	slots []pte.Tagged
	used  int

	insertCollisions stats.Counter
	inserts          stats.Counter
}

// New creates a table sized so that `expected` keys reach the given load
// factor.
func New(expected int, loadFactor float64) *Table {
	if loadFactor <= 0 || loadFactor >= 1 {
		panic(fmt.Sprintf("hashpt: bad load factor %v", loadFactor))
	}
	n := 1
	for float64(n)*loadFactor < float64(expected) {
		n *= 2
	}
	return &Table{slots: make([]pte.Tagged, n)}
}

func (t *Table) home(v addr.VPN) int {
	return int(blake2b.Sum64(uint64(v)) & uint64(len(t.slots)-1))
}

// Insert places a translation, linear-probing past occupied slots. It
// reports whether the home slot was already taken by a different key — the
// §7.3 collision event.
func (t *Table) Insert(v addr.VPN, e pte.Entry) (collided bool, err error) {
	if t.used >= len(t.slots) {
		return false, fmt.Errorf("hashpt: table full")
	}
	tag := addr.AlignDown(v, e.Size())
	h := t.home(tag)
	t.inserts.Inc()
	for d := 0; d < len(t.slots); d++ {
		i := (h + d) & (len(t.slots) - 1)
		if t.slots[i].Valid() && t.slots[i].Tag == tag {
			t.slots[i].Entry = e
			return d > 0, nil
		}
		if !t.slots[i].Valid() {
			t.slots[i] = pte.Tagged{Tag: tag, Entry: e}
			t.used++
			if d > 0 {
				t.insertCollisions.Inc()
			}
			return d > 0, nil
		}
	}
	return true, fmt.Errorf("hashpt: no free slot")
}

// CollisionRate returns the fraction of inserts whose home slot was taken —
// the §7.3 metric.
func (t *Table) CollisionRate() float64 {
	return stats.Ratio(t.insertCollisions.Value(), t.inserts.Value())
}

// Snapshot implements metrics.Source: the insert/collision counters behind
// the §7.3 hashed-baseline comparison.
func (t *Table) Snapshot() metrics.Set {
	var s metrics.Set
	s.Counter("inserts", t.inserts.Value())
	s.Counter("insert_collisions", t.insertCollisions.Value())
	return s
}

var _ metrics.Source = (*Table)(nil)
