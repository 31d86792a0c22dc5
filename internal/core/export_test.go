package core

import (
	"encoding/binary"
	"hash/fnv"
)

// IndexDigest is FNV-64a over everything a build decides: the key range and
// mapped count, then every node in level order (level, offset, node PA,
// quantized slope and intercept, key range, leaf flag, child count,
// displacement and residual) and, for a leaf with a table, its slot count,
// used count and extent count followed by every slot's tag, entry and PA.
func IndexDigest(ix *Index) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(ix.loKey)
	put(ix.hiKey)
	put(uint64(ix.mapped))
	for _, level := range ix.levels {
		for _, n := range level {
			put(uint64(n.level))
			put(uint64(n.offset))
			put(uint64(ix.NodePA(n.level, n.offset)))
			put(uint64(n.slope))
			put(uint64(n.intercept))
			put(n.loKey)
			put(n.hiKey)
			leaf := uint64(0)
			if n.leaf {
				leaf = 1
			}
			put(leaf)
			put(uint64(len(n.children)))
			put(uint64(n.maxDisp))
			put(uint64(n.residual))
			if n.table == nil {
				continue
			}
			put(uint64(n.table.Slots()))
			put(uint64(n.table.Used()))
			put(uint64(n.table.Extents()))
			for i := 0; i < n.table.Slots(); i++ {
				s := n.table.Get(i)
				put(uint64(s.Tag))
				put(uint64(s.Entry))
				put(uint64(n.table.SlotPA(i)))
			}
		}
	}
	return h.Sum64()
}

// Mappings returns the index's live translations.
func (ix *Index) Mappings() []Mapping { return ix.collectMappings() }
