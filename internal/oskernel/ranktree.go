package oskernel

// rankTree is an order-statistic map from packed page keys to slots: a
// B+tree whose inner nodes record how many keys lie under each child.
// Inserting a key and removing the k-th smallest both cost O(log n),
// and with 64-way nodes they touch a handful of cache lines even at
// millions of keys — a binary tree would miss the cache at every level.
// Nodes released by merges are recycled, so a tree whose size holds
// steady stops allocating.
type rankTree struct {
	root *rtNode
	size int
	free *rtNode // released nodes, linked through kid[0]
}

const (
	rtMax = 64        // entries per node
	rtMin = rtMax / 4 // a non-root node below this merges or borrows
)

// rtNode is a leaf or an inner node. Entry i of a leaf is key[i] with
// its slot in val[i]; entry i of an inner node is child kid[i], whose
// smallest key is key[i] and which holds val[i] keys.
type rtNode struct {
	n    int
	leaf bool
	key  [rtMax]uint64
	val  [rtMax]int32
	kid  [rtMax]*rtNode
}

func (t *rankTree) alloc(leaf bool) *rtNode {
	nd := t.free
	if nd == nil {
		nd = new(rtNode)
	} else {
		t.free = nd.kid[0]
	}
	nd.n, nd.leaf = 0, leaf
	return nd
}

func (t *rankTree) release(nd *rtNode) {
	nd.kid[0] = t.free
	t.free = nd
}

// weight returns the number of keys under entries [i, j) of nd.
func (nd *rtNode) weight(i, j int) int {
	if nd.leaf {
		return j - i
	}
	w := 0
	for _, v := range nd.val[i:j] {
		w += int(v)
	}
	return w
}

// put inserts an entry at position i of a node with room for it.
func (nd *rtNode) put(i int, key uint64, kid *rtNode, val int32) {
	copy(nd.key[i+1:nd.n+1], nd.key[i:nd.n])
	copy(nd.val[i+1:nd.n+1], nd.val[i:nd.n])
	if !nd.leaf {
		copy(nd.kid[i+1:nd.n+1], nd.kid[i:nd.n])
		nd.kid[i] = kid
	}
	nd.key[i], nd.val[i] = key, val
	nd.n++
}

// cut removes entries [i, i+m) of nd.
func (nd *rtNode) cut(i, m int) {
	copy(nd.key[i:], nd.key[i+m:nd.n])
	copy(nd.val[i:], nd.val[i+m:nd.n])
	if !nd.leaf {
		copy(nd.kid[i:], nd.kid[i+m:nd.n])
	}
	nd.n -= m
}

// appendFrom appends entries [i, j) of src to nd.
func (nd *rtNode) appendFrom(src *rtNode, i, j int) {
	copy(nd.key[nd.n:], src.key[i:j])
	copy(nd.val[nd.n:], src.val[i:j])
	if !nd.leaf {
		copy(nd.kid[nd.n:], src.kid[i:j])
	}
	nd.n += j - i
}

// prependFrom inserts entries [i, j) of src before nd's entries.
func (nd *rtNode) prependFrom(src *rtNode, i, j int) {
	m := j - i
	copy(nd.key[m:], nd.key[:nd.n])
	copy(nd.val[m:], nd.val[:nd.n])
	copy(nd.key[:m], src.key[i:j])
	copy(nd.val[:m], src.val[i:j])
	if !nd.leaf {
		copy(nd.kid[m:], nd.kid[:nd.n])
		copy(nd.kid[:m], src.kid[i:j])
	}
	nd.n += m
}

// insert adds key, which must be absent, with its slot.
func (t *rankTree) insert(key uint64, slot int32) {
	if t.root == nil {
		t.root = t.alloc(true)
	}
	if r := t.insertAt(t.root, key, slot); r != nil {
		l := t.root
		t.root = t.alloc(false)
		t.root.put(0, l.key[0], l, int32(l.weight(0, l.n)))
		t.root.put(1, r.key[0], r, int32(r.weight(0, r.n)))
	}
	t.size++
}

// insertAt inserts into subtree nd and returns nd's new right sibling
// if nd had to split.
func (t *rankTree) insertAt(nd *rtNode, key uint64, slot int32) *rtNode {
	// i counts the entries whose key is at most key.
	i, j := 0, nd.n
	for i < j {
		if h := int(uint(i+j) >> 1); nd.key[h] <= key {
			i = h + 1
		} else {
			j = h
		}
	}
	if nd.leaf {
		return t.putSplit(nd, i, key, nil, slot)
	}
	c := max(i-1, 0)
	kid := nd.kid[c]
	r := t.insertAt(kid, key, slot)
	nd.key[c] = kid.key[0]
	if r == nil {
		nd.val[c]++
		return nil
	}
	rw := int32(r.weight(0, r.n))
	nd.val[c] += 1 - rw
	return t.putSplit(nd, c+1, r.key[0], r, rw)
}

// putSplit inserts an entry at position i of nd, first splitting a full
// nd in half; it returns the new right half, if any.
func (t *rankTree) putSplit(nd *rtNode, i int, key uint64, kid *rtNode, val int32) *rtNode {
	if nd.n < rtMax {
		nd.put(i, key, kid, val)
		return nil
	}
	const half = rtMax / 2
	r := t.alloc(nd.leaf)
	r.appendFrom(nd, half, nd.n)
	nd.n = half
	if i <= half {
		nd.put(i, key, kid, val)
	} else {
		r.put(i-half, key, kid, val)
	}
	return r
}

// removeKth removes the k-th smallest key (0-based, k < size) and
// returns it with its slot.
func (t *rankTree) removeKth(k int) (key uint64, slot int32) {
	key, slot = t.removeAt(t.root, k)
	for !t.root.leaf && t.root.n == 1 {
		old := t.root
		t.root = old.kid[0]
		t.release(old)
	}
	t.size--
	return key, slot
}

func (t *rankTree) removeAt(nd *rtNode, k int) (uint64, int32) {
	if nd.leaf {
		key, slot := nd.key[k], nd.val[k]
		nd.cut(k, 1)
		return key, slot
	}
	c := 0
	for k >= int(nd.val[c]) {
		k -= int(nd.val[c])
		c++
	}
	key, slot := t.removeAt(nd.kid[c], k)
	nd.val[c]--
	// Every inner node has a neighbour for its children to lean on: a
	// non-root one holds at least rtMin entries, and removeKth never
	// leaves an inner root with fewer than two.
	if kid := nd.kid[c]; kid.n >= rtMin {
		nd.key[c] = kid.key[0]
	} else {
		t.rebalance(nd, c)
	}
	return key, slot
}

// rebalance refills the underfull child c of nd from a neighbour:
// the two merge when they fit in one node and split their entries
// evenly otherwise.
func (t *rankTree) rebalance(nd *rtNode, c int) {
	l := c
	if c+1 == nd.n {
		l = c - 1
	}
	a, b := nd.kid[l], nd.kid[l+1]
	if a.n+b.n <= rtMax {
		a.appendFrom(b, 0, b.n)
		nd.val[l] += nd.val[l+1]
		nd.cut(l+1, 1)
		t.release(b)
	} else {
		half := (a.n + b.n) / 2
		if a.n < half {
			m := half - a.n
			w := int32(b.weight(0, m))
			a.appendFrom(b, 0, m)
			b.cut(0, m)
			nd.val[l] += w
			nd.val[l+1] -= w
		} else {
			w := int32(a.weight(half, a.n))
			b.prependFrom(a, half, a.n)
			a.n = half
			nd.val[l] -= w
			nd.val[l+1] += w
		}
		nd.key[l+1] = b.key[0]
	}
	nd.key[l] = a.key[0]
}
