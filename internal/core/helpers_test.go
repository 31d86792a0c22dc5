package core

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/fixed"
	"lvm/internal/gapped"
	"lvm/internal/pte"
)

// Index and builder operations only the tests use.

// KeyRange returns the VPN range currently covered by the index.
func (ix *Index) KeyRange() (lo, hi addr.VPN) { return addr.VPN(ix.loKey), addr.VPN(ix.hiKey) }

// Rebuild forces a full rebuild over the live translations .
func (ix *Index) Rebuild() error { return ix.rebuildWith(nil) }

// makePositionalLeaf builds a leaf whose model is positional: slot =
// ga_scale x (VPN - lo). Every key's prediction is exact, so lookups are
// single-access even for arbitrarily mixed page-size content.
func (b *builder) makePositionalLeaf(ms []Mapping, lo, hi uint64) (*node, error) {
	slope := fixed.FromFloat(b.p.GAScale)
	intercept := slope.Mul(fixed.FromInt(int64(lo))).Neg()
	nd := &node{slope: slope, intercept: intercept, loKey: lo, hiKey: hi, leaf: true}
	span := hi - lo + 1
	needSlots := int(slope.MulInt(int64(span))) + pte.ClusterSlots + 1
	table, err := gapped.New(b.ix.mem, needSlots, b.availOrder())
	if err != nil {
		return nil, err
	}
	for table.Slots() < needSlots {
		if err := table.Expand(needSlots-table.Slots(), b.availOrder()); err != nil {
			table.Release()
			return nil, err
		}
	}
	nd.table = table
	for _, m := range ms {
		pred := nd.predict(m.VPN)
		slot, _, err := table.Insert(int(pred), m.VPN, m.Entry, b.p.InsertReach)
		if err != nil {
			table.Release()
			nd.table = nil
			return nil, fmt.Errorf("core: positional leaf overflow: %w", err)
		}
		if d := abs(slot - int(pred)); d > nd.maxDisp {
			nd.maxDisp = d
		}
	}
	return nd, nil
}
