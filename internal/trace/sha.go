package trace

import (
	"crypto/sha256"
	"encoding/hex"
)

// SHA256 fingerprints the trace: the hex digest of its serialized form
// (WriteTo), so the same reference stream hashes identically no matter
// how it was produced — generated from a workload model, replayed from
// a file, or uploaded to a server. This digest is the trace identity
// that campaign manifests pin and the serving layer's result cache
// keys on.
//
// The digest is memoized on the trace under the same contract as
// Validate's memo: a shared trace is not mutated, so a campaign that
// needs the digest in several places (the coordinator, the upload
// negotiation, the manifest) serializes and hashes the trace once.
func SHA256(t *Trace) string {
	if d := t.digest.Load(); d != nil {
		return *d
	}
	h := sha256.New()
	// Writing into a hash.Hash cannot fail; WriteTo has no other error
	// source.
	t.WriteTo(h) //nolint:errcheck
	d := hex.EncodeToString(h.Sum(nil))
	t.digest.Store(&d)
	return d
}
