package oskernel

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// checkRankTree verifies the B+tree invariants below nd — sorted keys,
// each inner key the smallest key of its child, each inner count the
// keys under its child, non-root nodes at least rtMin full, all leaves
// at one depth — and returns nd's key count and depth.
func checkRankTree(t *testing.T, nd *rtNode, root bool) (count, depth int) {
	t.Helper()
	if !root && nd.n < rtMin {
		t.Fatalf("non-root node holds %d entries, below %d", nd.n, rtMin)
	}
	for i := 1; i < nd.n; i++ {
		if nd.key[i-1] >= nd.key[i] {
			t.Fatalf("keys out of order at %d: %#x >= %#x", i, nd.key[i-1], nd.key[i])
		}
	}
	if nd.leaf {
		return nd.n, 0
	}
	for i := 0; i < nd.n; i++ {
		kid := nd.kid[i]
		c, d := checkRankTree(t, kid, false)
		if c != int(nd.val[i]) || nd.key[i] != kid.key[0] {
			t.Fatalf("entry %d records %d keys from %#x, child holds %d from %#x", i, nd.val[i], nd.key[i], c, kid.key[0])
		}
		if i > 0 && d != depth-1 {
			t.Fatalf("leaves at unequal depths")
		}
		count, depth = count+c, d+1
	}
	return count, depth
}

// TestRankTreeMatchesSortedSlice drives the tree through growth to three
// levels, shrinking and regrowth (recycling released nodes), random
// churn, removals skewed to either end (borrowing from both
// neighbours), and drain to empty, comparing every removal with a
// sorted-slice model and checking the invariants throughout.
func TestRankTreeMatchesSortedSlice(t *testing.T) {
	src := rng.New(5)
	var tr rankTree
	var model []uint64 // sorted keys; a key's slot is its low 31 bits
	slotOf := func(key uint64) int32 { return int32(key & (1<<31 - 1)) }
	insert := func() {
		key := src.Uint64() >> 24
		i, found := slices.BinarySearch(model, key)
		if found {
			return
		}
		model = slices.Insert(model, i, key)
		tr.insert(key, slotOf(key))
	}
	remove := func(k int) {
		key, slot := tr.removeKth(k)
		if key != model[k] || slot != slotOf(model[k]) {
			t.Fatalf("removeKth(%d) of %d = (%#x, %d), want (%#x, %d)", k, len(model), key, slot, model[k], slotOf(model[k]))
		}
		model = slices.Delete(model, k, k+1)
	}
	random := func() int { return src.Intn(len(model)) }
	last := func() int { return len(model) - 1 }
	first := func() int { return 0 }
	check := func() {
		t.Helper()
		if tr.size != len(model) {
			t.Fatalf("size %d, model %d", tr.size, len(model))
		}
		if n, _ := checkRankTree(t, tr.root, true); n != len(model) {
			t.Fatalf("tree holds %d keys, model %d", n, len(model))
		}
	}

	for len(model) < 20_000 {
		insert()
	}
	check()
	if _, depth := checkRankTree(t, tr.root, true); depth < 2 {
		t.Fatalf("tree of %d keys has depth %d, want at least 2", len(model), depth)
	}
	for _, phase := range []struct {
		ops    int
		insert bool // alternate removals with random inserts
		rank   func() int
	}{
		{18_000, false, random},
		{0, false, nil}, // regrow
		{40_000, true, random},
		{20_000, true, last},
		{20_000, true, first},
		{len(model), false, random},
	} {
		if phase.rank == nil {
			for len(model) < 20_000 {
				insert()
			}
		}
		for i := 0; i < phase.ops && len(model) > 0; i++ {
			if phase.insert && i%2 == 0 {
				insert()
			} else {
				remove(phase.rank())
			}
			if i%1_000 == 0 {
				check()
			}
		}
		check()
	}
	for len(model) > 0 {
		remove(random())
	}
	check()
	if !tr.root.leaf || tr.root.n != 0 {
		t.Fatalf("drained tree keeps a root with %d entries (leaf=%v)", tr.root.n, tr.root.leaf)
	}
}

// TestRankTreeInnerBorrowsFromLeft covers the rebalance a random tree
// seldom reaches: an underfull last inner node refilled from a left
// neighbour too full to merge with.
func TestRankTreeInnerBorrowsFromLeft(t *testing.T) {
	var tr rankTree
	var next uint64
	inner := func(kids int) *rtNode {
		nd := tr.alloc(false)
		for i := 0; i < kids; i++ {
			leaf := tr.alloc(true)
			for j := 0; j < rtMin; j++ {
				leaf.put(j, next, nil, int32(next))
				next++
			}
			nd.put(i, leaf.key[0], leaf, int32(leaf.n))
		}
		return nd
	}
	a, b := inner(rtMax-4), inner(rtMin-1)
	tr.root = tr.alloc(false)
	tr.root.put(0, a.key[0], a, int32(a.weight(0, a.n)))
	tr.root.put(1, b.key[0], b, int32(b.weight(0, b.n)))
	tr.size = int(next)
	tr.rebalance(tr.root, 1)
	if a.n+b.n != rtMax-4+rtMin-1 || b.n < rtMin {
		t.Fatalf("rebalance left %d and %d entries", a.n, b.n)
	}
	checkRankTree(t, tr.root, true)
	for want := uint64(0); want < next; want++ {
		if key, slot := tr.removeKth(0); key != want || slot != int32(want) {
			t.Fatalf("removeKth(0) = (%d, %d), want %d", key, slot, want)
		}
	}
}
