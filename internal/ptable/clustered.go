package ptable

import (
	"repro/internal/addr"
	"repro/internal/mem"
)

// Clustered is a clustered (subblocked) hashed page table in the style of
// Talluri & Hill: each table entry maps a naturally-aligned *cluster* of
// ClusterPages consecutive virtual pages, holding one tag plus
// ClusterPages packed PTEs. Compared to the per-page PA-RISC table it
// trades a larger entry for three effects the literature argues about and
// this simulator can measure:
//
//   - PTEs for virtually adjacent pages share an entry (and usually a
//     cache line), restoring the spatial locality hierarchical tables
//     have and inverted tables lose;
//   - the table has ClusterPages× fewer entries, shortening chains for
//     clustered access patterns;
//   - sparse access patterns waste the unused subblock slots.
//
// The organization name is "clustered".
const (
	// ClusterPages is the subblocking factor (pages per entry).
	ClusterPages = 8
	// ClusteredEntryBytes is the entry size: an 8-byte tag/link header
	// plus ClusterPages 4-byte PTEs, padded to a power of two.
	ClusteredEntryBytes = 64
	// NameClustered is the organization name.
	NameClustered = "clustered"
)

// Clustered implements the table.
type Clustered struct {
	hpt     mem.Region
	crt     mem.Region
	entries uint64
	// chains[bucket] lists tagged cluster numbers (asid<<32|cluster) in
	// insertion order; element 0 occupies the HPT slot, the rest CRT
	// slots.
	chains  map[uint64][]uint64
	crtSlot map[uint64]uint64
	nextCRT uint64
}

// NewClustered reserves the table and CRT. Entry count preserves the
// paper's 2:1 PTE-to-frame ratio: pages*2 PTEs packed ClusterPages per
// entry.
func NewClustered(phys *mem.Phys) (*Clustered, error) {
	entries := phys.Pages() * 2 / ClusterPages
	if entries == 0 {
		entries = 1
	}
	hpt, err := phys.Reserve("clustered-hpt", entries*ClusteredEntryBytes)
	if err != nil {
		return nil, err
	}
	crt, err := phys.Reserve("clustered-crt", entries*ClusteredEntryBytes)
	if err != nil {
		return nil, err
	}
	return &Clustered{
		hpt:     hpt,
		crt:     crt,
		entries: entries,
		chains:  make(map[uint64][]uint64),
		crtSlot: make(map[uint64]uint64),
	}, nil
}

// Name returns "clustered".
func (c *Clustered) Name() string { return NameClustered }

// PTEBytes returns the per-page PTE size inside an entry.
func (c *Clustered) PTEBytes() int { return HierPTEBytes }

// Entries returns the table's entry count.
func (c *Clustered) Entries() uint64 { return c.entries }

// cluster returns va's cluster number.
func cluster(va uint64) uint64 { return addr.VPN(va) / ClusterPages }

// Hash buckets a cluster, mixing the address-space id like the PA-RISC
// hash does.
func (c *Clustered) Hash(asid uint8, va uint64) uint64 {
	cl := cluster(va)
	space := uint64(asid) * 0x9E37
	return (cl ^ (cl >> addr.Log2(c.entries)) ^ space) & (c.entries - 1)
}

// ChainAddrs returns the table addresses a lookup for va must load, in
// walk order. Each chain element costs one load of the entry's header+tag
// word; the final (matching) element's load is directed at the PTE slot
// for va's page within the cluster, so that adjacent pages' lookups touch
// adjacent bytes of the same entry.
func (c *Clustered) ChainAddrs(asid uint8, va uint64) []uint64 {
	tagged := uint64(asid)<<32 | cluster(va)
	bucket := c.Hash(asid, va)
	chain := c.chains[bucket]
	pos := -1
	for i, v := range chain {
		if v == tagged {
			pos = i
			break
		}
	}
	if pos < 0 {
		chain = append(chain, tagged)
		c.chains[bucket] = chain
		pos = len(chain) - 1
		if pos > 0 {
			c.crtSlot[tagged] = c.nextCRT
			c.nextCRT++
		}
	}
	entryBase := func(i int) uint64 {
		if i == 0 {
			return c.hpt.Base + bucket*ClusteredEntryBytes
		}
		slot := c.crtSlot[chain[i]]
		return c.crt.Base + (slot*ClusteredEntryBytes)%c.crt.Size
	}
	out := make([]uint64, 0, pos+1)
	for i := 0; i < pos; i++ {
		// Non-matching chain elements: tag check at the entry header.
		out = append(out, addr.Unmapped(entryBase(i)))
	}
	// Matching element: load the page's own PTE slot.
	pteOff := 8 + (addr.VPN(va)%ClusterPages)*HierPTEBytes
	out = append(out, addr.Unmapped(entryBase(pos)+pteOff))
	return out
}

// AverageChainLength returns the mean chain length over non-empty
// buckets.
func (c *Clustered) AverageChainLength() float64 {
	if len(c.chains) == 0 {
		return 0
	}
	total := 0
	for _, ch := range c.chains {
		total += len(ch)
	}
	return float64(total) / float64(len(c.chains))
}

// MappedClusters returns how many distinct (process, cluster) pairs have
// been installed.
func (c *Clustered) MappedClusters() int {
	n := 0
	for _, ch := range c.chains {
		n += len(ch)
	}
	return n
}
