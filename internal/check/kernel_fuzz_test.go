package check

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/oskernel"
	"repro/internal/simerr"
)

// FuzzKernelMatchesReference drives oskernel.Kernel and the naive
// refKernel side by side over a generated policy, frame budget (1–64),
// seed, and touch stream, and requires identical decisions on every
// touch: the same victim, fault, and exhaustion error. The stream is
// byte pairs — asid&3, vpn&127 — so generated inputs mix hits, faults,
// and evictions across address spaces.
func FuzzKernelMatchesReference(f *testing.F) {
	add := func(policy string, frames int, seed uint64, touches ...[2]byte) {
		var stream []byte
		for _, tc := range touches {
			stream = append(stream, tc[0], tc[1])
		}
		f.Add(uint8(slices.Index(oskernel.Policies(), policy)), uint8(frames-1), seed, stream)
	}
	// The fixed cases of internal/oskernel's unit tests.
	add("first-touch", 4, 1, [2]byte{0, 0}, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{0, 3}, [2]byte{0, 4})
	add("round-robin", 2, 1, [2]byte{1, 10}, [2]byte{1, 20}, [2]byte{1, 30}, [2]byte{1, 20}, [2]byte{1, 40})
	add("lru", 2, 1, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{0, 1}, [2]byte{0, 3})
	add("clock", 2, 1, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{0, 3}, [2]byte{0, 4})
	add("random", 3, 7, [2]byte{0, 10}, [2]byte{0, 20}, [2]byte{0, 30}, [2]byte{0, 40})
	add("lru", 2, 1, [2]byte{1, 7}, [2]byte{2, 7})
	// Every policy over the scan of TestRandomDeterministicAcrossRuns,
	// and over a hot set of three pages interleaved with a cold scan, so
	// that hits reorder the victims.
	var scan, hot [][2]byte
	for i := 0; i < 200; i++ {
		scan = append(scan, [2]byte{byte(i % 3), byte(i*37%64 + 1)})
		if i%2 == 0 {
			hot = append(hot, [2]byte{0, byte(i / 2 % 3)})
		} else {
			hot = append(hot, [2]byte{1, byte(i * 7 % 23)})
		}
	}
	for _, pol := range oskernel.Policies() {
		add(pol, 8, 99, scan...)
		add(pol, 8, 99, hot...)
	}

	f.Fuzz(func(t *testing.T, policy, frames uint8, seed uint64, stream []byte) {
		pols := oskernel.Policies()
		pol := pols[int(policy)%len(pols)]
		budget := 1 + int(frames)%64
		k, err := oskernel.New(pol, budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefKernel(pol, budget, seed)
		for i := 0; i+1 < len(stream); i += 2 {
			asid, vpn := stream[i]&3, uint64(stream[i+1]&127)
			ev, have, fault, err := k.Touch(asid, vpn)
			rev, rhave, rfault, rerr := ref.touch(asid, vpn)
			if ev != rev || have != rhave || fault != rfault ||
				(err == nil) != (rerr == nil) ||
				errors.Is(err, simerr.ErrMemExhausted) != errors.Is(rerr, simerr.ErrMemExhausted) {
				t.Fatalf("%s/%d frames, touch %d (asid=%d vpn=%d): kernel (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
					pol, budget, i/2, asid, vpn, ev, have, fault, err, rev, rhave, rfault, rerr)
			}
		}
		if k.Faults() != ref.faults || k.Evictions() != ref.evicts || k.Resident() != len(ref.pages) {
			t.Fatalf("%s/%d frames: kernel faults=%d evictions=%d resident=%d, reference %d/%d/%d",
				pol, budget, k.Faults(), k.Evictions(), k.Resident(), ref.faults, ref.evicts, len(ref.pages))
		}
	})
}
