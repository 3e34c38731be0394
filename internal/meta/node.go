package meta

import (
	"fmt"
	"slices"

	"blobcr/internal/wire"
)

// Node kinds, the first byte of every encoded node.
const (
	kindInner  = 1
	kindBottom = 2
)

// node is the decoded form of a stored tree node. Both slices have one entry
// per slot: kids[i] is invalid for an absent child, and leaves[i] is
// meaningful only where mask has bit i set.
type node struct {
	bottom bool
	mask   uint64
	kids   []NodeRef // inner
	leaves []Leaf    // bottom
}

// encodeInner appends an inner node:
//
//	u8 kind | u8 fanout | uvarint mask | per present child: uvarint blob, uvarint version
func encodeInner(w *wire.Buffer, kids []NodeRef) {
	var mask uint64
	for i, k := range kids {
		if k.Valid {
			mask |= 1 << i
		}
	}
	w.PutU8(kindInner)
	w.PutU8(uint8(len(kids)))
	w.PutUvarint(mask)
	for _, k := range kids {
		if k.Valid {
			w.PutUvarint(k.Blob)
			w.PutUvarint(k.Version)
		}
	}
}

// encodeBottom appends a bottom node holding the leaves whose slots mask
// names; table is scratch space for its provider table, returned for reuse:
//
//	u8 kind | u8 fanout | uvarint mask | uvarint table count | table strings |
//	uvarint provider references | per present slot: uvarint count,
//	count × uvarint table index, u64 key blob, u64 key id, u32 size
func encodeBottom(w *wire.Buffer, mask uint64, leaves []Leaf, table []string) []string {
	table, refs := table[:0], 0
	for i, l := range leaves {
		if mask&(1<<i) == 0 {
			continue
		}
		refs += len(l.Providers)
		for _, p := range l.Providers {
			if !slices.Contains(table, p) {
				table = append(table, p)
			}
		}
	}
	w.PutU8(kindBottom)
	w.PutU8(uint8(len(leaves)))
	w.PutUvarint(mask)
	w.PutUvarint(uint64(len(table)))
	for _, p := range table {
		w.PutString(p)
	}
	w.PutUvarint(uint64(refs))
	for i, l := range leaves {
		if mask&(1<<i) == 0 {
			continue
		}
		w.PutUvarint(uint64(len(l.Providers)))
		for _, p := range l.Providers {
			w.PutUvarint(uint64(slices.Index(table, p)))
		}
		w.PutU64(l.Key.Blob)
		w.PutU64(l.Key.ID)
		w.PutU32(l.Size)
	}
	return table
}

// decodeNode decodes a node of a tree of fanout f at a bottom or inner
// level. It takes a fixed number of allocations whatever the node holds —
// for a bottom node one slot array, one string array for the provider table
// and every leaf's provider list (each list is a capacity-limited window of
// it), and one string for the table's bytes — and sizes none of them from a
// count larger than the bytes left to hold it.
func decodeNode(p []byte, f uint64, bottom bool) (node, error) {
	r := wire.NewReader(p)
	kind, fanout, mask := r.U8(), uint64(r.U8()), r.Uvarint()
	switch {
	case r.Err() != nil:
		return node{}, fmt.Errorf("meta: decode node: %w", r.Err())
	case kind != kindInner && kind != kindBottom:
		return node{}, fmt.Errorf("meta: unknown node kind %d", kind)
	case (kind == kindBottom) != bottom:
		return node{}, fmt.Errorf("meta: node kind %d at the wrong level", kind)
	case fanout != f:
		return node{}, fmt.Errorf("meta: node of fanout %d in a tree of fanout %d", fanout, f)
	case f < maxFanout && mask>>f != 0:
		return node{}, fmt.Errorf("meta: node mask %#x names a slot past fanout %d", mask, f)
	}
	n := node{bottom: bottom, mask: mask}
	if !bottom {
		n.kids = make([]NodeRef, f)
		for i := range n.kids {
			if mask&(1<<i) != 0 {
				n.kids[i] = NodeRef{Blob: r.Uvarint(), Version: r.Uvarint(), Valid: true}
			}
		}
		return n, finish(r)
	}
	// The provider table: each entry is at least its length byte. Its strings
	// are read as one and sliced, a single allocation however many there are.
	nt := r.Uvarint()
	if nt > uint64(r.Remaining()) {
		return node{}, fmt.Errorf("meta: provider table of %d entries in %d bytes", nt, r.Remaining())
	}
	start := len(p) - r.Remaining()
	for i := uint64(0); i < nt; i++ {
		r.Bytes()
	}
	end := len(p) - r.Remaining()
	refs := r.Uvarint()
	if err := r.Err(); err != nil {
		return node{}, fmt.Errorf("meta: decode node: %w", err)
	}
	if refs > uint64(r.Remaining()) {
		return node{}, fmt.Errorf("meta: %d provider references in %d bytes", refs, r.Remaining())
	}
	strs := make([]string, nt+refs)
	table, raw, tr := strs[:nt], string(p[start:end]), wire.NewReader(p[start:end])
	for i := range table {
		size := len(tr.Bytes())
		at := len(raw) - tr.Remaining()
		table[i] = raw[at-size : at]
	}
	n.leaves = make([]Leaf, f)
	used := nt
	for i := range n.leaves {
		if mask&(1<<i) == 0 {
			continue
		}
		np := r.Uvarint()
		if np > uint64(len(strs))-used {
			return node{}, fmt.Errorf("meta: leaf %d names %d providers, %d references left", i, np, uint64(len(strs))-used)
		}
		l := &n.leaves[i]
		if np > 0 {
			l.Providers = strs[used : used+np : used+np]
		}
		for j := range l.Providers {
			idx := r.Uvarint()
			if idx >= nt {
				return node{}, fmt.Errorf("meta: leaf %d names provider %d of a table of %d", i, idx, nt)
			}
			l.Providers[j] = table[idx]
		}
		used += np
		l.Key.Blob, l.Key.ID, l.Size = r.U64(), r.U64(), r.U32()
	}
	if used != uint64(len(strs)) && r.Err() == nil {
		return node{}, fmt.Errorf("meta: leaves name %d provider references, header says %d", used-nt, refs)
	}
	return n, finish(r)
}

// finish checks that a node decoded whole: nothing truncated, nothing left.
func finish(r *wire.Reader) error {
	if err := r.End(); err != nil {
		return fmt.Errorf("meta: decode node: %w", err)
	}
	return nil
}
