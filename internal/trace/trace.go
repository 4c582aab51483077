// Package trace defines the reference streams the simulator consumes.
//
// The paper drives its simulator with address traces of the SPEC '95
// integer benchmarks. This package defines the in-memory trace
// representation — one record per user-level instruction, carrying the
// fetch address and an optional data access — together with summary
// statistics (footprints, reference mix) used to sanity-check synthetic
// workloads against the qualitative properties the paper describes.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/addr"
	"repro/internal/simerr"
)

// CorruptError describes a structurally invalid trace: an out-of-range
// field, a truncated or malformed serialized stream. It pinpoints the
// damage — record index and, for serialized traces, the byte offset of
// the offending record — and wraps simerr.ErrTraceCorrupt so batch
// drivers can classify the failure with errors.Is.
type CorruptError struct {
	// Name is the trace name ("" when corruption precedes the header's
	// name field).
	Name string
	// Index is the record index, or -1 when the damage is not scoped to
	// one record (header corruption, truncation inside the header).
	Index int
	// Offset is the byte offset into the serialized stream where the
	// damaged data starts, or -1 for in-memory traces.
	Offset int64
	// Err is the underlying cause.
	Err error
}

// Error formats the name/index/offset context around the cause.
func (e *CorruptError) Error() string {
	where := ""
	if e.Index >= 0 {
		where = fmt.Sprintf(" ref %d", e.Index)
	}
	if e.Offset >= 0 {
		where += fmt.Sprintf(" (byte offset %d)", e.Offset)
	}
	return fmt.Sprintf("trace %q%s: %v", e.Name, where, e.Err)
}

// Unwrap exposes both the taxonomy class and the underlying cause.
func (e *CorruptError) Unwrap() []error {
	return []error{simerr.ErrTraceCorrupt, e.Err}
}

// Kind classifies an instruction's data access.
type Kind uint8

// Data-access kinds.
const (
	// None: the instruction makes no data reference.
	None Kind = iota
	// Load: the instruction reads memory.
	Load
	// Store: the instruction writes memory.
	Store
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "invalid"
	}
}

// MaxASIDs bounds the address-space ids a trace may use; it matches the
// per-process structures the page-table organizations pre-reserve.
const MaxASIDs = 16

// Ref flags.
const (
	// FlagUncached marks the data reference as bypassing the caches —
	// the per-line software-controlled cacheability the paper's §5
	// attributes to software-managed caches. The reference is still
	// translated (it needs a physical address) but neither probes nor
	// fills the data caches.
	FlagUncached uint8 = 1 << iota
)

// Ref is one user-level instruction: its fetch address and, if Kind is
// Load or Store, the address of its data reference. ASID identifies the
// issuing process's address space; single-process traces leave it zero.
type Ref struct {
	PC    uint64
	Data  uint64
	Kind  Kind
	ASID  uint8
	Flags uint8
}

// Trace is a named, replayable reference stream.
//
// A Trace is logically immutable once built: the simulator, the sweep
// worker pool, and the differential oracle all share one Trace read-only.
// Mutating Name or Refs after the first Validate or SHA256 call is not
// supported.
type Trace struct {
	Name string
	Refs []Ref

	// validated memoizes a successful Validate (1 = known valid), so a
	// sweep replaying one trace through hundreds of configurations pays
	// the O(n) validation scan once instead of once per run. Maintained
	// with atomics because sweep workers share the Trace.
	validated uint32
	// digest memoizes SHA256 under the same contract.
	digest atomic.Pointer[string]
}

// Len returns the number of instructions.
func (t *Trace) Len() int { return len(t.Refs) }

// Stats summarizes a trace.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// CodePages / DataPages are the distinct 4KB page counts.
	CodePages int
	DataPages int
	// CodeBytes / DataBytes are the page-granular footprints.
	CodeBytes uint64
	DataBytes uint64
	// DataRefRatio is (loads+stores)/instructions.
	DataRefRatio float64
}

// String formats the summary for human consumption.
func (s Stats) String() string {
	return fmt.Sprintf(
		"instrs=%d loads=%d stores=%d dataRefRatio=%.3f code=%dKB(%d pages) data=%dKB(%d pages)",
		s.Instructions, s.Loads, s.Stores, s.DataRefRatio,
		s.CodeBytes/1024, s.CodePages, s.DataBytes/1024, s.DataPages)
}

// ComputeStats scans the trace and returns its summary.
func (t *Trace) ComputeStats() Stats {
	codePages := map[uint64]struct{}{}
	dataPages := map[uint64]struct{}{}
	var s Stats
	for _, r := range t.Refs {
		s.Instructions++
		codePages[addr.VPN(r.PC)] = struct{}{}
		switch r.Kind {
		case Load:
			s.Loads++
			dataPages[addr.VPN(r.Data)] = struct{}{}
		case Store:
			s.Stores++
			dataPages[addr.VPN(r.Data)] = struct{}{}
		}
	}
	s.CodePages = len(codePages)
	s.DataPages = len(dataPages)
	s.CodeBytes = uint64(s.CodePages) * addr.PageSize
	s.DataBytes = uint64(s.DataPages) * addr.PageSize
	if s.Instructions > 0 {
		s.DataRefRatio = float64(s.Loads+s.Stores) / float64(s.Instructions)
	}
	return s
}

// PageHistogram returns, for the data side, the reference count per
// virtual page, sorted descending — used to verify locality skew in
// synthetic workloads (hot pages first).
func (t *Trace) PageHistogram() []PageCount {
	counts := map[uint64]uint64{}
	for _, r := range t.Refs {
		if r.Kind != None {
			counts[addr.VPN(r.Data)]++
		}
	}
	out := make([]PageCount, 0, len(counts))
	for vpn, n := range counts {
		out = append(out, PageCount{VPN: vpn, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].VPN < out[j].VPN
	})
	return out
}

// PageCount pairs a virtual page with its reference count.
type PageCount struct {
	VPN   uint64
	Count uint64
}

// Validate checks the invariants every trace consumed by the simulator
// must satisfy: all PCs and data addresses in user space, and Kind
// consistent with Data. A successful validation is memoized, so repeated
// runs over a shared trace (a sweep's cross-product) validate it once.
func (t *Trace) Validate() error {
	if atomic.LoadUint32(&t.validated) == 1 {
		return nil
	}
	for i := range t.Refs {
		if err := validateRef(t.Name, i, &t.Refs[i]); err != nil {
			return err
		}
	}
	atomic.StoreUint32(&t.validated, 1)
	return nil
}

// ValidateRefs checks one chunk of an incrementally-delivered trace
// against the same invariants Validate enforces on a whole trace. start
// is the trace index of refs[0], so a violation's *CorruptError carries
// the record's absolute index (Offset is -1: the chunk arrived decoded,
// not serialized). The streaming engine feed (sim.Engine.Feed) runs
// every chunk through this, making an incrementally-fed run exactly as
// strict as a batch one.
func ValidateRefs(name string, start int, refs []Ref) error {
	for i := range refs {
		if err := validateRef(name, start+i, &refs[i]); err != nil {
			return err
		}
	}
	return nil
}

// validateRef checks one reference's invariants; i and name label the
// resulting *CorruptError (Offset -1; the serialized reader fills it).
func validateRef(name string, i int, r *Ref) *CorruptError {
	corrupt := func(format string, args ...any) *CorruptError {
		return &CorruptError{Name: name, Index: i, Offset: -1, Err: fmt.Errorf(format, args...)}
	}
	if !addr.IsUser(r.PC) {
		return corrupt("PC %#x outside user space", r.PC)
	}
	if r.Kind != None && !addr.IsUser(r.Data) {
		return corrupt("data %#x outside user space", r.Data)
	}
	if r.Kind > Store {
		return corrupt("invalid kind %d", r.Kind)
	}
	if r.ASID >= MaxASIDs {
		return corrupt("ASID %d exceeds the %d supported address spaces", r.ASID, MaxASIDs)
	}
	if r.Flags&^FlagUncached != 0 {
		return corrupt("unknown flag bits %#x", r.Flags&^FlagUncached)
	}
	return nil
}

// ContextSwitches counts the ASID changes along the trace.
func (t *Trace) ContextSwitches() int {
	n := 0
	for i := 1; i < len(t.Refs); i++ {
		if t.Refs[i].ASID != t.Refs[i-1].ASID {
			n++
		}
	}
	return n
}
