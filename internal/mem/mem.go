// Package mem models the simulated physical memory: a frame allocator
// with named, page-aligned reserved regions for kernel structures (root
// page tables, the PA-RISC hashed page table and its collision-resolution
// table, kernel administrative data).
//
// The paper's simulator assumes "the memory system is large enough to hold
// all pages used by an application and all pages required to hold the page
// tables" and charges nothing for first-touch initialization, so the
// allocator never replaces pages: frames are handed out first-touch,
// sequentially, after the reserved regions. The default physical memory is
// 8MB — the paper's configuration for sizing the PA-RISC hashed table.
package mem

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/simerr"
)

// Phys is the simulated physical memory.
type Phys struct {
	size      uint64
	reserveAt uint64            // next reservation offset (from bottom)
	nextFrame uint64            // next first-touch frame (after reservations)
	frames    map[uint64]uint64 // user VPN -> PFN
	regions   map[string]Region
	wrapped   bool
}

// Region is a named physical carve-out.
type Region struct {
	Name string
	// Base is the physical byte address of the region start.
	Base uint64
	// Size is the region length in bytes (page-rounded).
	Size uint64
}

// Unmapped returns the region base as an unmapped-window address, which is
// how handler code addresses physical structures.
func (r Region) Unmapped() uint64 { return addr.Unmapped(r.Base) }

// New constructs a physical memory of the given size in bytes. Size is
// rounded up to a whole number of pages; zero selects the paper's 8MB.
func New(size uint64) *Phys {
	if size == 0 {
		size = addr.DefaultPhysMemBytes
	}
	size = (size + addr.PageMask) &^ uint64(addr.PageMask)
	return &Phys{
		size:    size,
		frames:  make(map[uint64]uint64),
		regions: make(map[string]Region),
	}
}

// Size returns the physical memory size in bytes.
func (p *Phys) Size() uint64 { return p.size }

// Pages returns the number of physical page frames.
func (p *Phys) Pages() uint64 { return p.size >> addr.PageShift }

// Reserve carves out a named page-aligned region of at least size bytes
// from the bottom of physical memory. Reservations must happen before any
// first-touch allocation. Reserving the same name twice or exceeding
// physical memory is an error.
func (p *Phys) Reserve(name string, size uint64) (Region, error) {
	if _, dup := p.regions[name]; dup {
		return Region{}, fmt.Errorf("mem: region %q already reserved", name)
	}
	if p.nextFrame != 0 {
		return Region{}, fmt.Errorf("mem: cannot reserve %q after frame allocation began", name)
	}
	size = (size + addr.PageMask) &^ uint64(addr.PageMask)
	if p.reserveAt+size > p.size {
		return Region{}, fmt.Errorf("mem: region %q (%d bytes) exceeds physical memory (%d of %d bytes used): %w",
			name, size, p.reserveAt, p.size, simerr.ErrMemExhausted)
	}
	r := Region{Name: name, Base: p.reserveAt, Size: size}
	p.regions[name] = r
	p.reserveAt += size
	return r, nil
}

// Regions returns all reservations, ordered by base address.
func (p *Phys) Regions() []Region {
	out := make([]Region, 0, len(p.regions))
	for _, r := range p.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Region returns the named reservation.
func (p *Phys) Region(name string) (Region, bool) {
	r, ok := p.regions[name]
	return r, ok
}

// FrameFor returns the physical frame number backing virtual page vpn,
// allocating one first-touch if needed. If physical memory is exhausted
// the allocator wraps around to the first non-reserved frame (the paper's
// workloads never exceed 8MB; wrapping keeps the simulator total even
// under a misconfigured workload, and Wrapped() exposes that it happened).
func (p *Phys) FrameFor(vpn uint64) uint64 {
	if pfn, ok := p.frames[vpn]; ok {
		return pfn
	}
	if p.nextFrame == 0 {
		p.nextFrame = p.reserveAt >> addr.PageShift
	}
	if p.nextFrame >= p.Pages() {
		p.nextFrame = p.reserveAt >> addr.PageShift
		p.wrapped = true
	}
	pfn := p.nextFrame
	p.nextFrame++
	p.frames[vpn] = pfn
	return pfn
}

// Mapped reports whether vpn has been touched (has a frame).
func (p *Phys) Mapped(vpn uint64) bool {
	_, ok := p.frames[vpn]
	return ok
}

// TouchedPages returns the number of distinct virtual pages allocated.
func (p *Phys) TouchedPages() int { return len(p.frames) }

// Wrapped reports whether the allocator ever ran out of frames and reused
// frame numbers.
func (p *Phys) Wrapped() bool { return p.wrapped }
