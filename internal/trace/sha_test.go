package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestSHA256MatchesSerializedForm(t *testing.T) {
	tr := &Trace{Name: "sha-test", Refs: []Ref{
		{PC: 0x1000, Kind: None},
		{PC: 0x1004, Data: 0x8000, Kind: Load},
		{PC: 0x1008, Data: 0x8010, Kind: Store},
	}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := SHA256(tr), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("SHA256 = %s, want the digest of the serialized form %s", got, want)
	}
}

func TestSHA256DistinguishesTraces(t *testing.T) {
	a := &Trace{Name: "a", Refs: []Ref{{PC: 0x1000}}}
	b := &Trace{Name: "a", Refs: []Ref{{PC: 0x1004}}}
	c := &Trace{Name: "c", Refs: []Ref{{PC: 0x1000}}}
	if SHA256(a) == SHA256(b) {
		t.Error("different reference streams hash identically")
	}
	if SHA256(a) == SHA256(c) {
		t.Error("different trace names hash identically")
	}
	if SHA256(a) != SHA256(&Trace{Name: "a", Refs: []Ref{{PC: 0x1000}}}) {
		t.Error("identical traces hash differently")
	}
}

func TestSHA256IsMemoized(t *testing.T) {
	mk := func() *Trace {
		return &Trace{Name: "memo", Refs: []Ref{
			{PC: 0x1000, Kind: None},
			{PC: 0x1004, Data: 0x8000, Kind: Load},
		}}
	}
	tr := mk()
	first := SHA256(tr)
	if fresh := SHA256(mk()); first != fresh {
		t.Fatalf("memoized digest %s, fresh trace's %s", first, fresh)
	}
	// A second call must not serialize the trace again: refs changed
	// behind the memo's back (which the sharing contract forbids) leave
	// the answer unchanged, and the call allocates nothing.
	tr.Refs[0].PC = 0x2000
	if again := SHA256(tr); again != first {
		t.Fatalf("second SHA256 re-hashed the trace: %s, first %s", again, first)
	}
	if n := testing.AllocsPerRun(10, func() { SHA256(tr) }); n != 0 {
		t.Fatalf("memoized SHA256 allocates %v times per call", n)
	}
}
