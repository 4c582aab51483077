package ptable

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/mem"
)

func TestClusteredSizing(t *testing.T) {
	c := must(NewClustered(mem.New(0)))
	// 2048 frames × 2:1 ratio / 8 pages per cluster = 512 entries.
	if c.Entries() != 512 {
		t.Fatalf("entries = %d, want 512", c.Entries())
	}
	if c.Name() != "clustered" {
		t.Fatal("name")
	}
	if c.PTEBytes() != HierPTEBytes {
		t.Fatal("PTE size")
	}
}

func TestClusteredAdjacentPagesShareEntry(t *testing.T) {
	// The design's selling point: pages of one cluster resolve within one
	// 64-byte entry, 4 bytes apart.
	c := must(NewClustered(mem.New(0)))
	base := uint64(0) // pages 0..7 form cluster 0
	a := c.ChainAddrs(0, base)
	b := c.ChainAddrs(0, base+addr.PageSize)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("chain lengths %d/%d, want 1/1", len(a), len(b))
	}
	if b[0]-a[0] != HierPTEBytes {
		t.Fatalf("adjacent pages' PTE slots %d apart, want %d", b[0]-a[0], HierPTEBytes)
	}
	// Same entry line: addresses within one 64-byte entry.
	if a[0]/ClusteredEntryBytes != b[0]/ClusteredEntryBytes {
		t.Fatal("adjacent pages resolved to different entries")
	}
}

func TestClusteredDifferentClustersDifferentEntries(t *testing.T) {
	c := must(NewClustered(mem.New(0)))
	a := c.ChainAddrs(0, 0)
	b := c.ChainAddrs(0, ClusterPages*addr.PageSize) // next cluster
	if a[len(a)-1]/ClusteredEntryBytes == b[len(b)-1]/ClusteredEntryBytes {
		t.Fatal("distinct clusters share an entry")
	}
}

func TestClusteredFewerInstallationsThanPARISC(t *testing.T) {
	// Touching a contiguous region installs footprint/ClusterPages
	// clusters vs one PA-RISC entry per page.
	c := must(NewClustered(mem.New(0)))
	p := must(NewPARISC(mem.New(0)))
	for page := uint64(0); page < 128; page++ {
		va := page * addr.PageSize
		c.ChainAddrs(0, va)
		p.ChainAddrs(0, va)
	}
	if c.MappedClusters() != 128/ClusterPages {
		t.Fatalf("clusters = %d, want %d", c.MappedClusters(), 128/ClusterPages)
	}
	if p.MappedPages() != 128 {
		t.Fatalf("pa-risc pages = %d, want 128", p.MappedPages())
	}
}

func TestClusteredChainGrowth(t *testing.T) {
	c := must(NewClustered(mem.New(0)))
	// Find two clusters with the same hash.
	va1 := uint64(0)
	h := c.Hash(0, va1)
	var va2 uint64
	for v := va1 + ClusterPages*addr.PageSize; ; v += ClusterPages * addr.PageSize {
		if c.Hash(0, v) == h {
			va2 = v
			break
		}
	}
	if len(c.ChainAddrs(0, va1)) != 1 {
		t.Fatal("first chain not length 1")
	}
	if got := len(c.ChainAddrs(0, va2)); got != 2 {
		t.Fatalf("colliding chain length %d, want 2", got)
	}
	// Lookups are stable.
	if len(c.ChainAddrs(0, va1)) != 1 || len(c.ChainAddrs(0, va2)) != 2 {
		t.Fatal("chain lengths unstable")
	}
}

func TestClusteredASIDsSeparate(t *testing.T) {
	c := must(NewClustered(mem.New(0)))
	c.ChainAddrs(0, 0)
	c.ChainAddrs(1, 0)
	if c.MappedClusters() != 2 {
		t.Fatalf("clusters = %d, want 2 (one per address space)", c.MappedClusters())
	}
}

func TestClusteredAddressesWithinTables(t *testing.T) {
	phys := mem.New(0)
	c := must(NewClustered(phys))
	hpt, _ := phys.Region("clustered-hpt")
	crt, _ := phys.Region("clustered-crt")
	for page := uint64(0); page < 4096; page += 3 {
		for _, a := range c.ChainAddrs(0, page*addr.PageSize*17%addr.UserTop) {
			pa := addr.PhysOf(a)
			inHPT := pa >= hpt.Base && pa < hpt.Base+hpt.Size
			inCRT := pa >= crt.Base && pa < crt.Base+crt.Size
			if !inHPT && !inCRT {
				t.Fatalf("access %#x outside both tables", pa)
			}
		}
	}
}

func TestClusteredEmptyAverage(t *testing.T) {
	if must(NewClustered(mem.New(0))).AverageChainLength() != 0 {
		t.Fatal("empty table's average not 0")
	}
}
