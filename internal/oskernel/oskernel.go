// Package oskernel models the operating system's page-frame management
// as a pluggable policy layer above the simulated physical memory.
//
// The paper's machine has an invisible OS: pages are allocated first
// touch from an effectively infinite physical memory, so the only OS
// cost is the TLB-refill handler itself. This package makes the OS a
// simulation subject. A Kernel tracks which (address space, virtual
// page) pairs are resident under a bounded frame budget, charges a page
// fault when a non-resident page is touched, and — when the budget is
// full — asks its replacement Policy for a victim. Evicting a victim
// unmaps it everywhere: the engine propagates the eviction to every
// core's TLBs as a shootdown (see internal/sim).
//
// Determinism: the Kernel is driven single-threaded in trace order (in
// multicore runs, in the global round-robin interleaving order), every
// policy is a deterministic function of the touch sequence, and the one
// random policy draws from an internal/rng stream seeded from the
// configuration — the same deliberate seed coupling the TLBs use, so
// the naive reference model in internal/check can replay the identical
// victim sequence.
//
// The OS observes memory at page-fault granularity only: a Touch is a
// TLB-hierarchy miss, not a load. Recency state (LRU order, clock
// reference bits) therefore updates per miss, never per reference —
// a real OS cannot see TLB hits either.
//
// Cost: every policy decides in O(1) or O(log n) per event, n being
// the resident count. Each resident page owns a slot — a dense index
// below the frame budget, recorded in the Kernel's resident map — and
// every policy keeps its ordering state in slot-indexed arrays, so a
// touch costs one map operation and an eviction hands its slot straight
// to the page being admitted. Once the budget is full a touch allocates
// nothing, beyond the random policy's tree growing to its bounded size.
package oskernel

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simerr"
)

// Page identifies one virtual page in one address space — the unit the
// kernel maps, evicts, and shoots down.
type Page struct {
	ASID uint8
	VPN  uint64
}

// key packs a Page into the map key form used throughout (the same
// asid<<32|vpn packing the tagged TLBs use).
func (p Page) key() uint64 { return uint64(p.ASID)<<32 | p.VPN }

func pageOf(key uint64) Page {
	return Page{ASID: uint8(key >> 32), VPN: key & (1<<32 - 1)}
}

// Policy is a pluggable page-replacement policy. The Kernel owns the
// residency bookkeeping, the frame budget, and the slot each resident
// page occupies; the policy owns only the ordering state needed to pick
// victims, indexed by slot. Slots are dense: the Kernel admits into slot
// s == (slots used so far) while the budget fills, and afterwards only
// into the slot Victim just returned. Implementations are driven
// single-threaded.
type Policy interface {
	// Name returns the registry name.
	Name() string
	// ChargesFaults reports whether a non-resident touch costs a page
	// fault. First-touch allocation is free (the paper's model); demand
	// paging is not.
	ChargesFaults() bool
	// Touched notifies the policy that the resident page in slot was
	// touched (recency update).
	Touched(slot int32)
	// Admitted notifies the policy that the page with packed key became
	// resident in slot.
	Admitted(slot int32, key uint64)
	// Victim selects and removes the next page to evict and returns its
	// slot. ok is false when the policy never evicts (first-touch),
	// which under a full budget means the memory is exhausted.
	Victim() (slot int32, ok bool)
}

// KernelSeedSalt derives the random policy's rng stream from the
// configuration seed, exactly as the engine derives its per-TLB
// streams. internal/check shares this constant on purpose — victim
// choices can only be compared step by step if both implementations
// draw the same stream.
const KernelSeedSalt = 0x4744

// Policies lists the registered policy names in presentation order.
// "first-touch" is the default and reproduces the paper's model.
func Policies() []string {
	return []string{"first-touch", "round-robin", "random", "lru", "clock"}
}

// newPolicy constructs a registered policy.
func newPolicy(name string, seed uint64) (Policy, error) {
	switch name {
	case "", "first-touch":
		return firstTouch{}, nil
	case "round-robin":
		return &roundRobin{}, nil
	case "random":
		return &randomPolicy{rnd: rng.New(seed ^ KernelSeedSalt)}, nil
	case "lru":
		return &lru{head: nilSlot, tail: nilSlot}, nil
	case "clock":
		return &clock{}, nil
	default:
		return nil, fmt.Errorf("oskernel: unknown policy %q (have %v)", name, Policies())
	}
}

// nilSlot terminates the LRU list.
const nilSlot int32 = -1

// Kernel is the simulated OS memory manager: a resident-set map from
// each page to its slot, a frame budget, and a replacement policy.
type Kernel struct {
	pol      Policy
	frames   int              // 0 = unbounded
	resident map[uint64]int32 // packed page key -> slot
	keys     []uint64         // slot -> packed page key
	faults   uint64
	evicts   uint64
}

// New builds a kernel for the named policy. frames bounds the number of
// simultaneously resident pages; 0 means unbounded. seed feeds the
// random policy's stream and is ignored by the rest.
func New(policy string, frames int, seed uint64) (*Kernel, error) {
	if frames < 0 {
		return nil, fmt.Errorf("oskernel: negative frame budget %d", frames)
	}
	if frames > math.MaxInt32 {
		return nil, fmt.Errorf("oskernel: frame budget %d exceeds %d", frames, math.MaxInt32)
	}
	pol, err := newPolicy(policy, seed)
	if err != nil {
		return nil, err
	}
	return &Kernel{
		pol:      pol,
		frames:   frames,
		resident: make(map[uint64]int32),
	}, nil
}

// Policy returns the active policy's name.
func (k *Kernel) Policy() string { return k.pol.Name() }

// Resident returns the number of currently resident pages.
func (k *Kernel) Resident() int { return len(k.resident) }

// Faults and Evictions expose lifetime totals for tests; the engine's
// warmup-aware counters are authoritative for results.
func (k *Kernel) Faults() uint64    { return k.faults }
func (k *Kernel) Evictions() uint64 { return k.evicts }

// Touch records that (asid, vpn) was demanded by a TLB-hierarchy miss.
// It returns whether the touch page-faulted, and — when admitting the
// page forced an eviction — the victim page the caller must shoot down
// on every other core. A full budget with a non-evicting policy returns
// an error wrapping simerr.ErrMemExhausted.
func (k *Kernel) Touch(asid uint8, vpn uint64) (evicted Page, haveEvict, fault bool, err error) {
	key := Page{ASID: asid, VPN: vpn}.key()
	if slot, ok := k.resident[key]; ok {
		k.pol.Touched(slot)
		return Page{}, false, false, nil
	}
	fault = k.pol.ChargesFaults()
	if fault {
		k.faults++
	}
	var slot int32
	if k.frames > 0 && len(k.resident) >= k.frames {
		vs, ok := k.pol.Victim()
		if !ok {
			return Page{}, false, fault, fmt.Errorf(
				"oskernel: %s policy over %d frames cannot place page asid=%d vpn=%#x: %w",
				k.pol.Name(), k.frames, asid, vpn, simerr.ErrMemExhausted)
		}
		vk := k.keys[vs]
		delete(k.resident, vk)
		k.evicts++
		evicted, haveEvict = pageOf(vk), true
		slot = vs
		k.keys[slot] = key
	} else {
		slot = int32(len(k.keys))
		k.keys = append(k.keys, key)
	}
	k.resident[key] = slot
	k.pol.Admitted(slot, key)
	return evicted, haveEvict, fault, nil
}

// --- first-touch ------------------------------------------------------

// firstTouch is the paper's model: pages are allocated on first touch,
// for free, and never reclaimed.
type firstTouch struct{}

func (firstTouch) Name() string           { return "first-touch" }
func (firstTouch) ChargesFaults() bool    { return false }
func (firstTouch) Touched(int32)          {}
func (firstTouch) Admitted(int32, uint64) {}
func (firstTouch) Victim() (int32, bool)  { return 0, false }

// --- round-robin ------------------------------------------------------

// roundRobin evicts frames in admission order — a FIFO rotation over
// the frame ring. Slots fill in admission order and each admission
// takes the slot just evicted, so the oldest page is always the one
// under the hand: O(1) per eviction.
type roundRobin struct {
	slots, hand int32
}

func (*roundRobin) Name() string        { return "round-robin" }
func (*roundRobin) ChargesFaults() bool { return true }
func (*roundRobin) Touched(int32)       {}

func (p *roundRobin) Admitted(slot int32, _ uint64) {
	if slot == p.slots {
		p.slots++
	}
}

func (p *roundRobin) Victim() (int32, bool) {
	if p.slots == 0 {
		return 0, false
	}
	v := p.hand
	p.hand = (p.hand + 1) % p.slots
	return v, true
}

// --- random -----------------------------------------------------------

// randomPolicy evicts a uniformly random resident page. The victim is
// defined as the Intn(n)-th smallest resident key — an
// implementation-independent spec, so the engine and the reference
// model agree given the same rng stream. An order-statistic tree over
// the resident keys finds and removes that key in O(log n).
type randomPolicy struct {
	rnd  *rng.Source
	tree rankTree
}

func (*randomPolicy) Name() string        { return "random" }
func (*randomPolicy) ChargesFaults() bool { return true }
func (*randomPolicy) Touched(int32)       {}

func (p *randomPolicy) Admitted(slot int32, key uint64) { p.tree.insert(key, slot) }

func (p *randomPolicy) Victim() (int32, bool) {
	if p.tree.size == 0 {
		return 0, false
	}
	_, slot := p.tree.removeKth(p.rnd.Intn(p.tree.size))
	return slot, true
}

// --- lru --------------------------------------------------------------

// lru evicts the page whose last touch is oldest. Touches are
// TLB-hierarchy misses, so this is miss-LRU, not reference-LRU — the
// OS cannot observe TLB hits. The recency order is an intrusive doubly
// linked list over slots, most recent at head: a touch moves its slot
// to the head and the victim is the tail, both O(1).
type lru struct {
	links      []lruLink // by slot
	head, tail int32
}

type lruLink struct{ prev, next int32 }

func (*lru) Name() string        { return "lru" }
func (*lru) ChargesFaults() bool { return true }

func (p *lru) Touched(slot int32) {
	if slot != p.head {
		p.unlink(slot)
		p.pushFront(slot)
	}
}

func (p *lru) Admitted(slot int32, _ uint64) {
	if int(slot) == len(p.links) {
		p.links = append(p.links, lruLink{})
	}
	p.pushFront(slot)
}

func (p *lru) Victim() (int32, bool) {
	v := p.tail
	if v == nilSlot {
		return 0, false
	}
	p.unlink(v)
	return v, true
}

func (p *lru) unlink(s int32) {
	l := p.links[s]
	if l.prev == nilSlot {
		p.head = l.next
	} else {
		p.links[l.prev].next = l.next
	}
	if l.next == nilSlot {
		p.tail = l.prev
	} else {
		p.links[l.next].prev = l.prev
	}
}

func (p *lru) pushFront(s int32) {
	p.links[s] = lruLink{prev: nilSlot, next: p.head}
	if p.head == nilSlot {
		p.tail = s
	} else {
		p.links[p.head].prev = s
	}
	p.head = s
}

// --- clock ------------------------------------------------------------

// clock is the classic second-chance ring: each resident page has a
// reference bit set on touch; the hand sweeps, clearing bits, and
// evicts the first unreferenced page it finds. The ring is the slot
// array: it grows while the budget fills and is full whenever Victim
// runs, and the admission after an eviction fills the slot just behind
// the hand — the one the victim vacated. A sweep clears at most one bit
// per resident page, so an eviction costs O(1) amortized.
type clock struct {
	ref  []bool // by slot
	hand int32
}

func (*clock) Name() string        { return "clock" }
func (*clock) ChargesFaults() bool { return true }

func (p *clock) Touched(slot int32) { p.ref[slot] = true }

func (p *clock) Admitted(slot int32, _ uint64) {
	if int(slot) == len(p.ref) {
		p.ref = append(p.ref, true)
		return
	}
	p.ref[slot] = true
}

func (p *clock) Victim() (int32, bool) {
	n := int32(len(p.ref))
	if n == 0 {
		return 0, false
	}
	for {
		i := p.hand
		p.hand = (p.hand + 1) % n
		if !p.ref[i] {
			return i, true
		}
		p.ref[i] = false
	}
}
