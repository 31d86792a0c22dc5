package oskernel

import (
	"lvm/internal/addr"
	"lvm/internal/asap"
	"lvm/internal/core"
	"lvm/internal/ecpt"
	"lvm/internal/fpt"
	"lvm/internal/ideal"
	"lvm/internal/mmu"
	"lvm/internal/pte"
	"lvm/internal/radix"
	"lvm/internal/revelator"
	"lvm/internal/vas"
	"lvm/internal/victima"
)

// pageTable is one process's translation structure as the OS drives it: the
// map/unmap/protect event stream of §5, whatever structure sits behind it.
// A table may also report its physical footprint (tableSizer) and change
// flags in place (flagSetter); the OS asks for both by interface assertion.
type pageTable interface {
	Map(v addr.VPN, e pte.Entry) error
	Unmap(v addr.VPN) bool
	Lookup(v addr.VPN) (pte.Entry, bool)
	// Release returns every table page to the physical allocator, in VPN
	// order.
	Release()
}

// tableSizer reports the physical bytes a table occupies (§7.3 "Memory
// Consumption"). Tables without it count as zero overhead.
type tableSizer interface{ TableBytes() uint64 }

// flagSetter changes a mapped entry's flags in place. Tables without it
// have Protect re-map the changed entry instead.
type flagSetter interface {
	SetFlags(v addr.VPN, set, clear pte.Entry) bool
}

// walker is a scheme's hardware walker: the simulator's view of it plus the
// per-ASID detach Kill needs.
type walker interface {
	mmu.Walker
	Detach(asid uint16)
}

// schemeOps is everything the OS knows about one scheme: how to make its
// walker, and how to build a process's table from the launch mappings and
// attach it to that walker. An attach that fails attaches nothing and
// returns the partial table it built, if any, with the error.
type schemeOps struct {
	walker func(HWConfig) walker
	attach func(s *System, p *Process, ms []core.Mapping) (pageTable, error)
}

var radixOps = schemeOps{
	walker: func(hw HWConfig) walker { return radix.NewWalker(hw.PWCEntriesPerLevel) },
	attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
		t, err := radix.New(s.Mem)
		return fill(s, p.ASID, ms, t, err, (*radix.Walker).Attach)
	},
}

// schemes maps every Scheme to its operations. Adding a scheme means one
// entry here plus the scheme's own package.
var schemes = map[Scheme]schemeOps{
	SchemeRadix:   radixOps,
	SchemeMidgard: radixOps, // walk gating is the simulator's
	SchemeECPT: {
		walker: func(HWConfig) walker { return ecpt.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := ecpt.New(s.Mem, 0)
			return fill(s, p.ASID, ms, t, err, (*ecpt.Walker).Attach)
		},
	},
	SchemeLVM: {
		walker: func(hw HWConfig) walker { return core.NewHWWalker(hw.LWCEntries) },
		attach: attachLVM,
	},
	SchemeIdeal: {
		walker: func(HWConfig) walker { return ideal.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := ideal.New(s.Mem, len(ms))
			return fill(s, p.ASID, ms, t, err, (*ideal.Walker).Attach)
		},
	},
	SchemeFPT: {
		walker: func(HWConfig) walker { return fpt.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := fpt.New(s.Mem)
			return fill(s, p.ASID, ms, t, err, (*fpt.Walker).Attach)
		},
	},
	SchemeASAP: {
		walker: func(HWConfig) walker { return asap.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := asap.New(s.Mem)
			if err == nil {
				for _, r := range p.Space.Regions {
					// Best-effort: unprefetchable VMAs degrade to radix walks.
					_ = t.AddVMA(r.Base, r.Base+addr.VPN(r.Span)-1)
				}
			}
			return fill(s, p.ASID, ms, t, err, (*asap.Walker).Attach)
		},
	},
	SchemeVictima: {
		walker: func(HWConfig) walker { return victima.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := victima.New(s.Mem)
			return fill(s, p.ASID, ms, t, err, (*victima.Walker).Attach)
		},
	},
	SchemeRevelator: {
		walker: func(HWConfig) walker { return revelator.NewWalker() },
		attach: func(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
			t, err := revelator.New(s.Mem, len(ms))
			return fill(s, p.ASID, ms, t, err, (*revelator.Walker).Attach)
		},
	},
}

// fill maps every launch mapping into t, the new table that came with err,
// and attaches it to the system's walker under asid. A table that fails to
// fill comes back unattached with the error, for launch to release.
func fill[W walker, T pageTable](s *System, asid uint16, ms []core.Mapping, t T, err error, attach func(W, uint16, T)) (pageTable, error) {
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		if err := t.Map(m.VPN, m.Entry); err != nil {
			return t, err
		}
	}
	attach(s.walker.(W), asid, t)
	return t, nil
}

// LVM's software management costs in cycles (§7.3 reports retrains
// < 1.9 ms and total management ~1.17% of runtime; these constants land in
// that regime at 2 GHz).
const (
	insertCycles        = 150
	perKeyRetrainCycles = 40
	perKeyRebuildCycles = 60
	edgeExpansionCycles = 2000
)

// lvmTable is LVM's learned index behind the seam. It normalizes every VPN
// against its process's ASLR bases (§5.2) and charges the §7.3 management
// cycles of each insert, retrain, rebuild and edge expansion to the
// process's MgmtCycles.
type lvmTable struct {
	ix *core.Index
	p  *Process
}

func attachLVM(s *System, p *Process, ms []core.Mapping) (pageTable, error) {
	p.Norm = vas.NewNormalizer(p.Space)
	norm := make([]core.Mapping, len(ms))
	for i, m := range ms {
		norm[i] = core.Mapping{VPN: p.Norm.Normalize(m.VPN), Entry: m.Entry}
	}
	ix, err := core.Build(s.Mem, norm, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	p.MgmtCycles += uint64(len(norm)) * perKeyRebuildCycles // initial training
	s.walker.(*core.HWWalker).AttachNormalized(p.ASID, ix, p.Norm.Normalize)
	return &lvmTable{ix, p}, nil
}

func (t *lvmTable) Map(v addr.VPN, e pte.Entry) error {
	ix, p := t.ix, t.p
	before := ix.Stats()
	err := ix.Insert(core.Mapping{VPN: p.Norm.Normalize(v), Entry: e})
	after := ix.Stats()
	if err == nil {
		p.MgmtCycles += insertCycles
	}
	if after.Retrains > before.Retrains {
		p.MgmtCycles += uint64(ix.MappedPages()) * perKeyRetrainCycles / uint64(ix.LeafCount())
	}
	if after.Rebuilds > before.Rebuilds {
		p.MgmtCycles += uint64(ix.MappedPages()) * perKeyRebuildCycles
	}
	if after.EdgeExpansions > before.EdgeExpansions {
		p.MgmtCycles += edgeExpansionCycles
	}
	return err
}

// Unmap frees the translation; the index keeps the gap (§5.2 "Free").
func (t *lvmTable) Unmap(v addr.VPN) bool { return t.ix.Free(t.p.Norm.Normalize(v)) }

func (t *lvmTable) Lookup(v addr.VPN) (pte.Entry, bool) {
	r := t.ix.Walk(t.p.Norm.Normalize(v))
	return r.Entry, r.Found
}

func (t *lvmTable) Release() { t.ix.Release() }

func (t *lvmTable) TableBytes() uint64 {
	return t.ix.TableFootprintBytes() + uint64(t.ix.SizeBytes())
}

// SetFlags is the paper's software-walk modification path (§5.1's OS
// management of in-place PTEs).
func (t *lvmTable) SetFlags(v addr.VPN, set, clear pte.Entry) bool {
	return t.ix.SetFlags(t.p.Norm.Normalize(v), set, clear)
}
